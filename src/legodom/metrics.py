"""Closed-loop trajectory metrics: planar/vertical closure and per-axis MAE."""

import numpy as np


# finite rows far apart overflow to an infinite metric, not a warning
@np.errstate(over="ignore")
def compute_metrics(trajectory, ground_truth=None):
    """Closure and accuracy metrics for a trajectory array.

    trajectory: (n, >=4) rows starting with (t, x, y, z, ...). The planar
    closure e_xy is the horizontal distance between the first and last rows,
    e_z the absolute height difference; both are translation invariant. With
    a ground-truth array of the same layout (matched row for row), per-axis
    mean absolute errors are added.
    """
    traj = np.asarray(trajectory, dtype=float)
    if traj.ndim != 2 or traj.shape[0] < 1:
        raise ValueError("trajectory must have at least one row")
    first = traj[0]
    last = traj[-1]
    dx = last[1] - first[1]
    dy = last[2] - first[2]
    dz = last[3] - first[3]
    out = {
        "n_rows": int(traj.shape[0]),
        "duration": float(last[0] - first[0]),
        "e_xy": float(np.hypot(dx, dy)),
        "e_z": float(abs(dz)),
    }
    if ground_truth is not None:
        gt = np.asarray(ground_truth, dtype=float)
        if gt.shape[0] != traj.shape[0]:
            raise ValueError("ground truth row count %d != trajectory %d"
                             % (gt.shape[0], traj.shape[0]))
        err = traj[:, 1:4] - gt[:, 1:4]
        out["mae_x"] = float(np.mean(np.abs(err[:, 0])))
        out["mae_y"] = float(np.mean(np.abs(err[:, 1])))
        out["mae_z"] = float(np.mean(np.abs(err[:, 2])))
        out["terminal_error"] = float(np.linalg.norm(err[-1]))
    return out


__all__ = ["compute_metrics"]

"""Heading from multi-contact geometry and the gain-scheduled yaw correction.

With two or more stationary contacts, the bearing of the world-frame baseline
between two anchors compared against the tilt-compensated body-frame baseline
reveals the absolute yaw, independent of IMU integration.

The operators work on Python floats: anchors and feet are any length-3
sequences, angles are floats. A stance has at most a few legs, so at most a
few pairs a frame, too few for numpy's per-call cost to pay.
"""

import math

from .geometry import wrap_angle

# a pair of legs whose planar baseline is shorter than MIN_BASELINE (m) in
# either frame has an ill-conditioned bearing and gives no yaw
MIN_BASELINE = 0.02


def pairwise_yaw(anchors, feet_body, roll, pitch):
    """Yaw implied by each unordered pair of stance legs; [] for fewer than
    two legs.

    anchors: world-frame contact points; feet_body: body-frame end-effector
    positions of the same legs. Body baselines are tilt-compensated with
    Ry(pitch) Rx(roll) so only the heading difference remains. Pairs whose
    planar baseline is shorter than MIN_BASELINE in either frame are skipped.
    """
    # the first two rows of Ry(pitch) Rx(roll); a bearing never needs the third
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    t00, t01, t02 = cp, sp * sr, sp * cr
    out = []
    n = len(anchors)
    for i in range(n):
        ax, ay = anchors[i][0], anchors[i][1]
        fx, fy, fz = feet_body[i]
        for j in range(i + 1, n):
            wx = anchors[j][0] - ax
            wy = anchors[j][1] - ay
            dx, dy, dz = feet_body[j][0] - fx, feet_body[j][1] - fy, feet_body[j][2] - fz
            bx = t00 * dx + t01 * dy + t02 * dz
            by = cr * dy - sr * dz
            if math.hypot(wx, wy) < MIN_BASELINE or math.hypot(bx, by) < MIN_BASELINE:
                continue
            out.append(wrap_angle(math.atan2(wy, wx) - math.atan2(by, bx)))
    return out


def circular_mean(angles):
    """Wrap-safe mean angle, atan2 of summed sines and cosines (summed in
    order); None for no angles or for angles that cancel antipodally, which
    constrain no yaw."""
    ss = cc = 0.0
    for a in angles:
        ss += math.sin(a)
        cc += math.cos(a)
    if abs(ss) <= 1e-12 and abs(cc) <= 1e-12:
        return None
    return math.atan2(ss, cc)


def apply_yaw_correction(yaw, yaw_kin, n_contacts, n_full, now,
                         full_support_since, alpha0, ramp_time):
    """Blend the kinematic heading into the yaw state with a scheduled gain.

    Below full support (n_contacts < n_full) the accumulation timer resets and
    the gain stays at alpha0. At full support the gain ramps linearly from
    alpha0 to 1 over ramp_time, measured from when full support was first
    seen, so prolonged standing pins the heading to the contact geometry.

    Returns (corrected_yaw, full_support_since).
    """
    err = wrap_angle(yaw_kin - yaw)
    if n_contacts < n_full:
        full_support_since = None
        alpha = alpha0
    else:
        if full_support_since is None:
            full_support_since = now
        alpha = alpha0 + (now - full_support_since) * (1.0 - alpha0) / ramp_time
        alpha = min(1.0, max(0.0, alpha))
    return wrap_angle(yaw + alpha * err), full_support_since


__all__ = ["pairwise_yaw", "circular_mean", "apply_yaw_correction"]

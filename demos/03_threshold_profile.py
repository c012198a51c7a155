"""Threshold structure of one edge: beta/theta profiles.

Fix every rank except one edge's two. For each arrival time y_u of the
online endpoint, the offline endpoint's rank axis splits into three
intervals: below beta(y_u) it is already matched when u arrives, between
beta and theta it is matched to u itself, above theta it is left unmatched
at u's arrival. beta is non-decreasing and theta saturates at one, but
theta need NOT be monotone: with general weights an arrival can prefer one
neighbor early and another late. The second profile below shows a strictly
decreasing theta, reproduced against its closed form.
"""

import math

from rankmatch import (RankAssignment, build_instance, compute_thresholds,
                       half_exp)

# a competitor z grabs v whenever v is cheap enough: beta jumps at y_z
instance = build_instance(
    offline=[("v", 1.0), ("b", 1.0)],
    online=[("z", ["v", "b"]), ("u", ["v"])],
)
base = RankAssignment({"z": 0.4, "b": 0.05, "u": 0.9, "v": 0.5})
grid = [0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
profile = compute_thresholds(instance, half_exp(), base, "u", "v", grid)
print("edge (u, v) with a competitor arriving at 0.4:")
print(profile.to_csv())
print(f"tau = {profile.tau:.6f}, gamma = {profile.gamma:.6f}")
print()

# weighted fixture with strictly decreasing theta
instance2 = build_instance(
    offline=[("v", 1.0), ("z", 1.2)],
    online=[("u", ["v", "z"])],
)
base2 = RankAssignment({"u": 0.5, "v": 0.5, "z": math.log(1.8)})
grid2 = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
profile2 = compute_thresholds(instance2, half_exp(), base2, "u", "v", grid2)
curve = half_exp().curve_scalar
print("heavier competitor: theta(y_u) falls as u arrives later")
print("y_u      theta     closed form")
for y, t in zip(profile2.y_u_grid, profile2.theta):
    closed = math.log(2 * (0.88 - 0.2 * curve(y)))
    print(f"{y:.2f}   {t:.6f}   {closed:.6f}")

"""Tour of the gain-sharing specs and their analytic properties.

The weight-splitting specs are built from a one-dimensional curve; the
share of the matched weight kept by a vertex of rank x against a partner
of rank y is (curve(x) + 1 - curve(y)) / 2, so shares are symmetric and
the diagonal is always an even split. The derivative-bound sweep verifies
numerically that the share's sensitivity to the partner rank never dips
below share - 1, the inequality the whole analysis leans on; a table curve
that climbs faster than its own value breaks it and is flagged.
"""

import numpy as np

from rankmatch import (GainSpec, adversarial_baseline,
                       check_share_derivative_bound, half_exp, simple_exp)

for spec in (simple_exp(), half_exp()):
    print(f"{spec.kind}:")
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        print(f"  curve({x:.2f}) = {spec.curve_scalar(x):.6f}")
    print(f"  share(0.3, 0.8) = {spec.share_scalar(0.3, 0.8):.6f}")
    print(f"  share(0.8, 0.3) = {spec.share_scalar(0.8, 0.3):.6f}   (sum = 1)")
    report = check_share_derivative_bound(spec, grid_n=1000)
    print(f"  derivative bound: max defect {report.max_violation:.2e} "
          f"-> {'holds' if report.holds() else 'VIOLATED'}")
    print()

adv = adversarial_baseline()
print("adversarial baseline ignores the partner rank:")
print(f"  share(0.3, 0.1) = {adv.share_scalar(0.3, 0.1):.6f}")
print(f"  share(0.3, 0.9) = {adv.share_scalar(0.3, 0.9):.6f}")
print()

print("a steep table violates the bound and the sweep catches it:")
# piecewise_table would refuse this curve; GainSpec builds it unchecked
steep = GainSpec("table", (0.0, 0.5, 0.55, 1.0), (0.2, 0.2, 0.9, 0.9))
report = check_share_derivative_bound(steep, grid_n=1000)
print(f"  max defect {report.max_violation:.3f} at "
      f"(x={report.worst_x:.3f}, y={report.worst_y:.3f})")

print()
print("shares stay monotone on a grid (up in own rank, down in partner's):")
pts = np.linspace(0.0, 1.0, 5)
grid = half_exp().share(pts[:, None], pts[None, :])
print(np.array_str(np.asarray(grid), precision=3))

"""Tour of the gain-sharing specs and their analytic properties.

The weight-splitting specs are built from a one-dimensional curve; the
share of the matched weight kept by a vertex of rank x against a partner
of rank y is (curve(x) + 1 - curve(y)) / 2, so shares are symmetric and
the diagonal is always an even split. The analysis leans on the share's
sensitivity to the partner rank never dipping below share - 1, which holds
when the curve never climbs faster than its own value; a table curve that
does is refused when it is built.
"""

import numpy as np

from rankmatch import (GainSpec, GainSpecError, adversarial_baseline,
                       half_exp, simple_exp)

for spec in (simple_exp(), half_exp()):
    print(f"{spec.kind}:")
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        print(f"  curve({x:.2f}) = {spec.curve_scalar(x):.6f}")
    print(f"  share(0.3, 0.8) = {spec.share_scalar(0.3, 0.8):.6f}")
    print(f"  share(0.8, 0.3) = {spec.share_scalar(0.8, 0.3):.6f}   (sum = 1)")
    print()

adv = adversarial_baseline()
print("adversarial baseline ignores the partner rank:")
print(f"  share(0.3, 0.1) = {adv.share_scalar(0.3, 0.1):.6f}")
print(f"  share(0.3, 0.9) = {adv.share_scalar(0.3, 0.9):.6f}")
print()

print("a table that climbs faster than its own value is refused:")
try:
    GainSpec("table", (0.0, 0.5, 0.55, 1.0), (0.2, 0.2, 0.9, 0.9))
except GainSpecError as exc:
    print(f"  GainSpecError: {exc}")

print()
print("shares stay monotone on a grid (up in own rank, down in partner's):")
pts = np.linspace(0.0, 1.0, 5)
a, b = half_exp().offer_parts(pts)
grid = 1.0 - a[:, None] - b[None, :]
print(np.array_str(grid, precision=3))

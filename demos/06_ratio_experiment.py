"""Monte-Carlo competitive ratios on the triangular family.

The upper-triangular instance is the classic stress case for greedy-style
matching: online vertex i reaches only offline vertices i..n. Under random
arrivals both the two-dimensional rule and the static-price baseline score
far above their worst-case guarantees here; the point of the sweep is the
reproducible measurement, not a tight instance.
"""

from rankmatch import (ExperimentConfig, adversarial_baseline,
                       generate_instance, half_exp, run_ratio_experiment)

instance = generate_instance("upper_triangular", {"n": 60}, 0)
print(f"instance: upper_triangular(60), {int(instance.adjacency.sum())} edges")
print()

for name, spec in (("half-exp (two-dimensional shares)", half_exp()),
                   ("static-price baseline", adversarial_baseline())):
    report = run_ratio_experiment(
        ExperimentConfig(instance=instance, spec=spec, trials=2000, seed=11,
                         label=name))
    print(f"{name}:")
    print(f"  mean ALG/OPT = {report.mean_ratio:.5f}  "
          f"(std error {report.std_error:.5f}, opt {report.opt_value:.0f})")
print()
print("worst-case guarantees for reference: 0.653426 (half-exp),")
print("0.632121 = 1 - 1/e (static prices, arbitrary arrivals)")

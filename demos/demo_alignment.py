"""End-to-end interference-alignment experiment.

Builds monomial precoders for the boundary point d = (1/3, 1/3, 1/3, 1/3)
of the two-user shared-group network, verifies alignment and decodability,
then sweeps the expansion order n to watch the achieved DoF approach the
target.
"""

from sigma_align import DofPoint, SigmaConfig, precoder, verify

cfg = SigmaConfig(n1=1, n2=1, la=0, lb=2, lc=0)
d = DofPoint.make(db1=["1/3", "1/3"], db2=["1/3", "1/3"])

pl = precoder.plan(cfg, d, n=1)
print(f"plan: mu0={pl.mu0}, gamma=({pl.gamma1},{pl.gamma2}), "
      f"expanded block length mu_n={pl.mu_n}")
print(f"alignment sets: s1={pl.s1} (delta1={pl.delta1}), "
      f"s2={pl.s2} (delta2={pl.delta2})")

report = verify.run_experiment(cfg, d, n=1, seed=7, mode="float")
print(f"\nn=1 verification: passed={report.passed}, "
      f"alignment constraints checked={report.alignment_checked}")
print(f"decoder matrix at BS 1: {report.lambda1}")
for mid, a in report.achieved.items():
    print(f"  {mid}: per-slot {a['per_slot']} (ratio {a['ratio']} of target)")
print(f"sum per slot: {report.sum_per_slot}")

print("\nsweep over n (ratios climb toward 1):")
for n in range(1, 5):
    r = verify.run_experiment(cfg, d, n, seed=7, mode="float")
    print(f"  n={n}: sum={r.sum_per_slot} = {float(r.sum_per_slot):.4f}")

# float arithmetic gives out at larger n; certification reruns the same
# seed in exact prime-field (modp) arithmetic before trusting any failure
certified = verify.run_certified(cfg, d, n=3, seed=0)
print(f"\ncertified n=3 run: passed={certified.passed} "
      f"(settled in {certified.mode} mode)")

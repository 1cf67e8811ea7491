"""Randomized degradation study over random plants.

Reproducible end to end: each sample draws its system from a dedicated
PCG64 stream, rotates through three generation recipes, computes the
nominal and worst-case performance, and reports the relative performance
degradation in percent.  Estimation (problem I) lands on exactly 100%:
two transmissions are generically enough to recover the state, and the
worst pattern doubles the wait.
"""

from dropctrl import StudyConfig, run_study

cfg = StudyConfig(problem="I", k=1, n=10, m=7, samples=12, T=12, seed=7)
res = run_study(cfg)
print(f"problem I, k=1, n=10, m=7, {cfg.samples} samples "
      f"(generator {res.generator}):")
print(f"  avg RPD {res.avg_rpd:.1f}%  retained {res.retained}  discarded {res.discarded_samples}")

print("\nper-sample rows (id, recipe, nominal steps, worst steps, worst pattern):")
for row in res.rows[:6]:
    print(f"  {row.sample_id:2d} {row.method:<16} {row.nominal:.0f} -> {row.worst:.0f}  {row.argmax_signal}")

print("\nmaxmin LQR study on smaller plants (cost ratios vary per sample):")
res = run_study(StudyConfig(problem="V", k=1, n=4, m=2, samples=9, T=8, seed=11))
for row in res.rows:
    if row.status == "ok":
        print(f"  {row.sample_id:2d} {row.method:<16} RPD {row.rpd_percent:12.1f}%")
print(f"  avg {res.avg_rpd:.1f}%")

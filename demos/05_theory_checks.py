"""Monte-Carlo spot checks of the identifiability theory.

Runs two of the lighter checks at reduced replication.  The full suite,
with reports written as JSON:

    cause-sieve verify --check all --seed 0 --out verify/
"""

import cause_sieve as cs

r = cs.check_gamma_support_exception(n=1000, n_reps=20, seed=1)
print("gamma equal-scale exception (independence should hold):")
print(f"  equal scales rejected {r.payload['rejection_rate']:.0%} of the time")
print(f"  unequal-scale control rejected {r.payload['control_rejection_rate']:.0%} of the time")
print(f"  -> {'consistent with the exception' if r.passed else 'NOT consistent'}")

r = cs.check_marginalizability("uniform", n=1500, n_reps=15, seed=1)
print("\nlinear chain with uniform noise (only the source should survive):")
print(f"  estimate was {{1}} in {r.payload['x1_rate']:.0%} of runs, empty in {r.payload['empty_rate']:.0%}")

r = cs.check_marginalizability("gaussian", n=1500, n_reps=15, seed=1)
print("linear chain with Gaussian noise (nothing is identifiable):")
print(f"  estimate was empty in {r.payload['empty_rate']:.0%} of runs")

"""Explicit constants and the admissibility region.

The parameter pair (lambda, mu) enters through one aggregate Lambda; the
problem has the predicted two-branch structure whenever Lambda stays
below an explicit threshold C built from the exponents, the sup of the
positive part of the coupling weight, and the embedding constant S.
The same ingredients give two norm radii A_lm < A0 that separate the two
branches, and the threshold is exactly where the two radii collide.
"""

import json

import neharifrac as nf

spec = nf.ProblemSpec(
    grid=nf.GridSpec(-1.0, 1.0, 128), s=0.4, q=0.5, alpha=1.5, beta=1.5,
    lam=0.01, mu=0.01,
    f=nf.WeightSpec.constant(1.0), g=nf.WeightSpec.constant(1.0),
    b=nf.WeightSpec.cos_pi_x(1.0))
problem = nf.validate_params(spec)
form = nf.assemble_form(problem.grid, problem.s)

report = nf.compute_constants(problem, nf.estimate_S(form, problem.alpha + problem.beta, []))
print("constants report:")
print(json.dumps(report.as_dict(), indent=2))

print(f"\nadmissible: Lambda = {report.Lambda:.6f} < C = {report.C:.4f} "
      f"-> in_gamma = {report.in_gamma}")
print(f"gap radii: A_lm = {report.A_lm:.5f} < A0 = {report.A0:.4f}")

# the threshold identities, checked at the collision point Lambda = C
al, be, q = problem.alpha, problem.beta, problem.q
E_at_C = nf.E_coefficient(al, be, q, report.S, report.b_sup, report.C)
A0, A_lm = nf.gap_radii(al, be, q, report.S, report.b_sup, report.C)
print(f"\nat Lambda = C: E = {E_at_C:.2e} (exactly zero in exact arithmetic)")
print(f"at Lambda = C: A_lm / A0 = {A_lm / A0:.12f}")

# how far the parameters can grow before leaving the admissible region
scale = (report.C / report.Lambda) ** 0.75  # Lambda ~ (lambda)^{4/3} here
print(f"\nthe fixture parameters could grow by ~{scale:.0f}x before Lambda = C")

print("\nenergy lower bound on the manifold:",
      nf.energy_lower_bound(al, be, q, report.S, report.Lambda))
t_min, rho_min = nf.rho_minimum(1.0, 1.0, q)
print(f"generic comparison curve rho = t^2 - t^{{1-q}}: "
      f"t_min = {t_min:.6f}, rho(t_min) = {rho_min:.6f}")

"""The two positive solutions.

Minimizes the energy over each branch of the constraint manifold by
Sobolev-gradient descent with reprojection. The local-min branch produces a small-norm solution
with strictly negative energy; the local-max branch produces a separate
large-norm solution. Their norms straddle the gap radii, and both satisfy
the discrete stationarity conditions nodewise.
"""

import numpy as np

import neharifrac as nf

spec = nf.ProblemSpec(
    grid=nf.GridSpec(-1.0, 1.0, 128), s=0.4, q=0.5, alpha=1.5, beta=1.5,
    lam=0.01, mu=0.01,
    f=nf.WeightSpec.constant(1.0), g=nf.WeightSpec.constant(1.0),
    b=nf.WeightSpec.cos_pi_x(1.0))
problem = nf.validate_params(spec)
form = nf.assemble_form(problem.grid, problem.s)
opts = nf.SolverOptions(seed=42, restarts=4)

# both branches in one call, as `neharifrac solve --branch both` runs them
solved = nf.solve_points([problem], form, [nf.Branch.PLUS, nf.Branch.MINUS], opts)
[plus], [minus] = solved[nf.Branch.PLUS], solved[nf.Branch.MINUS]

for rep in (plus, minus):
    print(f"{rep.branch.value} branch: converged = {rep.converged} "
          f"in {rep.iters} iterations")
    print(f"  J = {rep.J:.8f}, norm = {rep.norm:.6f}")
    print(f"  phi'(1) = {rep.phi1:.2e}, phi''(1) = {rep.phi2:.4f}")
    print(f"  stationarity |grad J|_(G^-1) / |(u, w)| = {rep.stationarity:.1e}")
    pair = np.array([rep.u, rep.w])  # the interior values of u and w
    print(f"  max u = {rep.u.max():.5f}, interior min u = {rep.u.min():.2e}")
    delta = 1e-4 * float(rep.u.max())
    res = nf.weak_residual(problem, pair, nf.row_products(form, pair), delta)
    print(f"  stationarity residual: res_u = {res.res_u:.1e}, "
          f"res_w = {res.res_w:.1e}, masked fraction = {res.masked_fraction:.2f}")
    print()

# the gap structure: the two solutions are separated by the radii
extra = [plus.u, plus.w, minus.u, minus.w]
constants = nf.compute_constants(problem, nf.estimate_S(form, problem.alpha + problem.beta, extra))
gap = nf.gap_check(plus, minus, constants)
print(f"norm ordering: {gap.norm_minus:.4f} > {gap.A0:.4f} > "
      f"{gap.A_lm:.5f} > {gap.norm_plus:.5f}  -> ordering_ok = {gap.ordering_ok}")

# the inequality chains hold for both solutions, each at its own quotient
for rep in (plus, minus):
    pair = np.array([rep.u, rep.w])
    checks = nf.inequality_suite(problem, form, pair, nf.row_products(form, pair))
    names = ", ".join(f"{c.name}={'ok' if c.ok else 'FAIL'}" for c in checks.checks)
    print(f"{rep.branch.value}: {names}")

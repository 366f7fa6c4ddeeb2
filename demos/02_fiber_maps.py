"""Fiber maps and manifold projection.

For a direction pair (u, w), the scalar fiber t -> J(tu, tw) encodes how
the constraint manifold slices the ray through the pair. Its rescaled
derivative psi has either one root (coupling integral <= 0) or two roots
separated by the maximizer t_max (coupling integral > 0 and psi(t_max)
positive). The roots are the two branch projections: a fiber minimum and
a fiber maximum.
"""

import numpy as np

import neharifrac as nf

spec = nf.ProblemSpec(
    grid=nf.GridSpec(-1.0, 1.0, 64), s=0.4, q=0.5, alpha=1.5, beta=1.5,
    lam=0.01, mu=0.01,
    f=nf.WeightSpec.constant(1.0), g=nf.WeightSpec.constant(1.0),
    b=nf.WeightSpec.cos_pi_x(1.0))
problem = nf.validate_params(spec)
form = nf.assemble_form(problem.grid, problem.s)
q, ab = problem.q, problem.alpha + problem.beta

x = problem.grid.nodes()


def bump(center, width):
    prof = np.maximum(0.0, 1 - ((x - center) / width) ** 2) ** 2
    prof[0] = prof[-1] = 0.0
    return nf.GridPair.from_arrays(problem.grid, prof, prof)


for label, center, width in (("centered where b > 0", 0.0, 0.3),
                             ("centered where b < 0", -0.8, 0.12)):
    pair = bump(center, width)
    st = nf.pair_stats(problem, form, pair)
    roots = nf.project(st, q, ab)
    print(f"direction {label}:")
    print(f"  norm^2 = {st.norm2:.5f}, K = {st.K:.6f}, B = {st.B:.6f}")
    print(f"  case = {roots.case.value}, t_max = {roots.t_max:.5f}, "
          f"psi(t_max) = {roots.psi_at_tmax:.5f}")
    scaled = pair.scaled(roots.t1)
    m = nf.classify(problem, form, scaled)
    print(f"  t1 = {roots.t1:.6f} -> {m.label.value} "
          f"(phi' = {m.phi1:.2e}, phi'' = {m.phi2:.4f})")
    if roots.t2 is not None:
        m2 = nf.classify(problem, form, pair.scaled(roots.t2))
        print(f"  t2 = {roots.t2:.6f} -> {m2.label.value} "
              f"(phi' = {m2.phi1:.2e}, phi'' = {m2.phi2:.4f})")
    print()

# the fiber values along the ray show the min/max structure directly
pair = bump(0.0, 0.3)
st = nf.pair_stats(problem, form, pair)
roots = nf.project(st, q, ab)
print("fiber profile through the two-root direction:")
for t in np.geomspace(0.02, 5 * roots.t2, 12):
    val, d1, _ = nf.phi_from_stats(st, q, ab, float(t))
    marker = ""
    if abs(t - roots.t1) < 0.3 * roots.t1:
        marker = "   <- near the fiber minimum t1"
    if abs(t - roots.t2) < 0.3 * roots.t2:
        marker = "   <- near the fiber maximum t2"
    print(f"  t = {t:9.4f}: phi = {val:12.6f}, phi' = {d1:12.6f}{marker}")

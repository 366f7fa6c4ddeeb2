"""Fiber maps and manifold projection.

For a direction pair (u, w), the scalar fiber t -> J(tu, tw) encodes how
the constraint manifold slices the ray through the pair. Its rescaled
derivative psi has either one root (coupling integral <= 0) or two roots
separated by the maximizer t_max (coupling integral > 0 and psi(t_max)
positive). The roots are the two branch projections: a fiber minimum and
a fiber maximum. ``classify`` below reads the manifold band of a scaled
pair from its phi'(1) and phi''(1), as the solver's converged verdict does.
"""

import numpy as np

import neharifrac as nf
from neharifrac import fiber

spec = nf.ProblemSpec(
    grid=nf.GridSpec(-1.0, 1.0, 64), s=0.4, q=0.5, alpha=1.5, beta=1.5,
    lam=0.01, mu=0.01,
    f=nf.WeightSpec.constant(1.0), g=nf.WeightSpec.constant(1.0),
    b=nf.WeightSpec.cos_pi_x(1.0))
problem = nf.validate_params(spec)
form = nf.assemble_form(problem.grid, problem.s)
q, ab = problem.q, problem.alpha + problem.beta


def bump(center, width):
    """A pair (u, w) = (p, p) of one bump p, its (2, n) interior values."""
    prof = np.maximum(0.0, 1 - ((form.nodes - center) / width) ** 2) ** 2
    return np.array([prof, prof])


def classify(pair):
    """The manifold band of a pair and its phi'(1), phi''(1)."""
    st = nf.pair_stats(problem, form, pair)
    _, d1, d2 = nf.phi_from_stats(st, q, ab, 1.0)
    return fiber.label(d1, d2, st.scale()), d1, d2


for label, center, width in (("centered where b > 0", 0.0, 0.3),
                             ("centered where b < 0", -0.8, 0.12)):
    pair = bump(center, width)
    st = nf.pair_stats(problem, form, pair)
    roots = nf.project(st, q, ab)
    print(f"direction {label}:")
    print(f"  norm^2 = {st.norm2:.5f}, K = {st.K:.6f}, B = {st.B:.6f}")
    print(f"  case = {roots.case.value}, t_max = {roots.t_max:.5f}, "
          f"psi(t_max) = {roots.psi_at_tmax:.5f}")
    for name, t in (("t1", roots.t1), ("t2", roots.t2)):
        if t is not None:
            band, d1, d2 = classify(t * pair)
            print(f"  {name} = {t:.6f} -> {band.value} (phi' = {d1:.2e}, phi'' = {d2:.4f})")
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

"""The nonlocal energy norm as an explicit matrix.

Builds the quadratic form representing the squared zero-exterior energy
norm on an interval, then sanity-checks it three ways: against a brute
force punctured-quadrature oracle, under scaling, and under refinement.
"""

import numpy as np

import neharifrac as nf

grid = nf.GridSpec(-1.0, 1.0, 16)
s = 0.4
form = nf.assemble_form(grid, s)

print(f"grid: [{grid.left}, {grid.right}] with {grid.cells} cells, h = {grid.h}")
print(f"form matrix: {form.matrix.shape}, symmetric: "
      f"{np.abs(form.matrix - form.matrix.T).max() == 0.0}")

# a random function vanishing at the boundary
rng = np.random.default_rng(0)
vals = np.zeros(grid.node_count)
vals[1:-1] = rng.standard_normal(grid.cells - 1)
u = nf.GridFunction(grid, vals)

assembled = nf.seminorm_sq(form, u)
oracle = nf.brute_force_norm(grid, s, vals, refine=8)
print(f"\nassembled |u|^2      = {assembled:.6f}")
print(f"brute-force oracle   = {oracle:.6f}")
print(f"relative difference  = {abs(assembled - oracle) / oracle:.2e}")

doubled = nf.seminorm_sq(form, nf.GridFunction(grid, 2 * vals))
print(f"\nquadratic scaling: |2u|^2 / |u|^2 = {doubled / assembled}")

# the tent lies in every grid's piecewise-linear space and the form is
# exact, so its energy is the same on every grid
print("\nrefinement of a fixed tent profile:")
for cells in (16, 32, 64, 128):
    g = nf.GridSpec(-1.0, 1.0, cells)
    f = nf.assemble_form(g, s)
    x = g.nodes()
    prof = np.maximum(0.0, 1 - np.abs(x) / 0.125)
    prof[0] = prof[-1] = 0.0
    print(f"  N = {cells:4d}: |u|^2 = {nf.seminorm_sq(f, nf.GridFunction(g, prof)):.8f}")

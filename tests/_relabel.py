"""The same fan under new ray labels, for path-independence checks: χ is a
property of the variety and the line bundle, so every route must give the
same value whatever the rays are called. A relabelling moves σ₀ (the first
maximal cone in sorted order), the ray each route picks first and the ray
order of every star fan."""

from toricchi.fan import Fan


def relabel(fan: Fan, perm):
    """(fan′, move): ray i of fan is ray perm[i] of fan′, each cone's
    indices are mapped the same way, and move(coeffs) carries a divisor's
    coefficients from fan to fan′."""
    perm = tuple(perm)
    assert sorted(perm) == list(range(len(fan.rays)))
    rays = [None] * len(perm)
    for i, u in enumerate(fan.rays):
        rays[perm[i]] = u
    cones = [tuple(perm[i] for i in cone) for cone in fan.max_cones]

    def move(coeffs):
        out = [0] * len(perm)
        for i, a in enumerate(coeffs):
            out[perm[i]] = a
        return tuple(out)

    return Fan(fan.dim, tuple(rays), tuple(cones)), move

"""The window rule of the layout: the reference the stencil tests check
lattice.step_geometry, the engine's neighbour sums and PathDP against.  It
is written here from the layout's definition, not read from lattice, so a
wrong offset in the program cannot pass by being its own reference."""


def step_windows(d, k):
    """The 2d unit steps v in axis order, +e_j before -e_j, each with the
    window that applies it between the step-(k-1) and the step-k layer.

    window indexes the trailing d axes of a step-k layer (leading axes are
    kept) and has the step-(k-1) layer's shape: its cell at site x lines up
    with the step-(k-1) cell at site x + v.  So ``big[window] += small``
    adds small[x + v] into big[x], and ``small += big[window]`` adds
    big[x - v] into small[x].  Site x sits at cell (k + s(x)) / 2, with
    s(x) = (sum x, sum x - 2 x_2, ..., sum x - 2 x_d), so site x + v of
    step k-1 sits at cell u(x) - (1 - s(v)) / 2, and the window is
    [o, o + k) on an axis where (1 - s(v)) / 2 is o.
    """
    out = []
    for j in range(d):
        for sign in (1, -1):
            v = tuple(sign * (i == j) for i in range(d))
            s = [sum(v)] + [sum(v) - 2 * v[i] for i in range(1, d)]
            out.append((v, (Ellipsis,) + tuple(slice(o, o + k) for o in
                                               ((1 - e) // 2 for e in s))))
    return tuple(out)


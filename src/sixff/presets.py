"""Built-in worked objects: standard small groups, the skeleton of finite
sets of size <= n with all functions, and divisor posets.

These presets back the default verification battery, so it runs with no
external input files.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .groupoid import poset_category, presented_category
from .groups import FiniteGroup


@lru_cache(maxsize=None)
def group(name):
    name = name.upper()
    if name == "1":
        return FiniteGroup.cyclic(1, name="1")
    if name.startswith("C") and name[1:].isdigit():
        return FiniteGroup.cyclic(int(name[1:]))
    if name == "S3":
        return FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)], name="S3")
    if name == "S4":
        return FiniteGroup.from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")
    if name == "D4":
        return FiniteGroup.from_permutations([(1, 2, 3, 0), (3, 2, 1, 0)], name="D4")
    if name == "Q8":
        # unit quaternions as pairs (letter, sign-index); table via formulas
        elems = [("1", 0), ("1", 1), ("i", 0), ("i", 1),
                 ("j", 0), ("j", 1), ("k", 0), ("k", 1)]

        def q_mul(a, b):
            table = {
                ("1", "1"): ("1", 0), ("1", "i"): ("i", 0), ("1", "j"): ("j", 0),
                ("1", "k"): ("k", 0), ("i", "1"): ("i", 0), ("j", "1"): ("j", 0),
                ("k", "1"): ("k", 0),
                ("i", "i"): ("1", 1), ("j", "j"): ("1", 1), ("k", "k"): ("1", 1),
                ("i", "j"): ("k", 0), ("j", "i"): ("k", 1),
                ("j", "k"): ("i", 0), ("k", "j"): ("i", 1),
                ("k", "i"): ("j", 0), ("i", "k"): ("j", 1),
            }
            (la, sa), (lb, sb) = a, b
            lc, sc = table[(la, lb)]
            return (lc, (sa + sb + sc) % 2)

        table = {(a, b): q_mul(a, b) for a in elems for b in elems}
        return FiniteGroup(elems, table, name="Q8")
    if name in ("C2XC4", "C2*C4"):
        return FiniteGroup.direct_product(
            FiniteGroup.cyclic(2), FiniteGroup.cyclic(4), name="C2xC4")
    raise KeyError("unknown preset group %r" % name)


GROUP_PRESETS = ("1", "C2", "C3", "C4", "S3", "S4", "D4", "Q8", "C2xC4")


@lru_cache(maxsize=None)
def finset_category(max_size=3):
    """Skeleton of finite sets of cardinality <= max_size, with all
    functions as morphisms.  Objects are the integers 0..max_size."""
    return presented_category(
        range(max_size + 1),
        lambda n, m: [("fn", n, m, fn)
                      for fn in itertools.product(range(m), repeat=n)],
        lambda n: ("fn", n, n, tuple(range(n))),
        lambda g, f: ("fn", f[1], g[2], tuple(g[3][v] for v in f[3])))


@lru_cache(maxsize=None)
def divisor_poset(n):
    """Divisors of n ordered by divisibility, as a poset category with a
    unique morphism d -> e whenever d | e."""
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return poset_category(divs, lambda d, e: e % d == 0)


def chain_poset():
    """The linear order a < b < c as a poset category."""
    names = ["a", "b", "c"]
    return poset_category(names, lambda d, e: names.index(d) <= names.index(e))


def _no_composites(objs, arrows):
    """Objects `objs` with identities ("id", o) and the non-identity
    morphisms `arrows[(a, b)]`, no two of which are composable."""
    return presented_category(
        objs,
        lambda a, b: ([("id", a)] if a == b else []) + arrows.get((a, b), []),
        lambda a: ("id", a), lambda g, f: f if g[0] == "id" else g)


def cospan_category():
    """Three objects x -> z <- y (plus identities); has no pullbacks."""
    return _no_composites(["x", "y", "z"], {("x", "z"): [("f", "x", "z")],
                                            ("y", "z"): [("g", "y", "z")]})


def parallel_arrows_category():
    """Two objects with two parallel arrows x => y."""
    return _no_composites(["x", "y"], {("x", "y"): [("f",), ("g",)]})

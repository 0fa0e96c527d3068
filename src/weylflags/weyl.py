"""Exact arithmetic on symmetric groups and their labelled products.

A permutation ``w`` of ``{1, ..., n}`` is stored in one-line notation as a
tuple ``(w(1), ..., w(n))``.  A *multi-permutation* maps embedding labels
(strings) to permutations of a common rank and models an element of a
finite product of symmetric groups; it serializes as ``{"label": [images]}``.

Composition is function composition, ``(u * v)(i) = u(v(i))``, and length
is the inversion count, which agrees with Coxeter length on the simple
transpositions ``s_1, ..., s_{n-1}``.

>>> compose((2, 1, 3), (1, 3, 2))
(2, 3, 1)
>>> length((3, 2, 1))
3
>>> reduced_word((3, 2, 1))
(1, 2, 1)
>>> bruhat_leq((2, 1, 3), (3, 1, 2))
True
>>> multi_length({"a": (2, 1), "b": (1, 3, 2)})
2
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

Perm = Tuple[int, ...]
MultiPerm = Dict[str, Perm]


def check_perm(w: Sequence[int]) -> Perm:
    """Validate one-line notation and return it as a tuple.

    >>> check_perm([2, 1])
    (2, 1)
    >>> check_perm([1, 1])
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..2: (1, 1)
    """
    w = tuple(w)
    if not w or sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
    return w


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(u: Perm, v: Perm) -> Perm:
    """Function composition u after v.

    >>> compose((2, 1, 3), (2, 1, 3))
    (1, 2, 3)
    """
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    return tuple(u[v[i] - 1] for i in range(len(u)))


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        out[wi - 1] = i
    return tuple(out)


def length(w: Perm) -> int:
    """Inversion count #{(i, j) : i < j, w(i) > w(j)}.

    >>> length((1, 2, 3)), length((3, 2, 1))
    (0, 3)
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def longest_element(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def simple_reflection(n: int, i: int) -> Perm:
    """s_i as a permutation of rank n (1 <= i <= n-1)."""
    if not 1 <= i < n:
        raise ValueError(f"simple index {i} out of range for rank {n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def right_descents(w: Perm) -> Tuple[int, ...]:
    """Indices i with w(i) > w(i+1), i.e. length(w s_i) = length(w) - 1."""
    return tuple(i for i in range(1, len(w)) if w[i - 1] > w[i])


def reduced_word(w: Perm) -> Tuple[int, ...]:
    """A deterministic reduced word for w, as simple indices.

    Repeatedly strips the smallest right descent, so the returned word
    multiplies left to right (starting from the identity) to w and has
    length exactly length(w).

    >>> reduced_word((3, 2, 1))
    (1, 2, 1)
    >>> reduced_word((1, 2, 3))
    ()
    """
    return tuple(i for _, i in multi_reduced_word({"": w}))


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Strong Bruhat order via sorted-prefix dominance.

    u <= v iff for every k the decreasing sort of (u(1)..u(k)) is
    entrywise <= the decreasing sort of (v(1)..v(k)).

    >>> bruhat_leq((1, 2, 3), (3, 2, 1))
    True
    >>> bruhat_leq((2, 1, 3), (1, 3, 2))
    False
    """
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    n = len(u)
    for k in range(1, n):
        us = sorted(u[:k], reverse=True)
        vs = sorted(v[:k], reverse=True)
        if any(a > b for a, b in zip(us, vs)):
            return False
    return True


# ---------------------------------------------------------------------------
# products of symmetric groups, indexed by embedding labels


def check_multi(w: MultiPerm) -> MultiPerm:
    if not isinstance(w, dict) or not w:
        raise ValueError("multi-permutation must be a non-empty label -> images mapping")
    return {tau: check_perm(part) for tau, part in w.items()}


def _check_same_shape(u: MultiPerm, v: MultiPerm) -> None:
    if set(u) != set(v):
        raise ValueError(f"embedding sets differ: {sorted(u)} vs {sorted(v)}")
    for tau in u:
        if len(u[tau]) != len(v[tau]):
            raise ValueError(f"rank mismatch at embedding {tau!r}")


def multi_identity(ranks: Dict[str, int]) -> MultiPerm:
    return {tau: identity(n) for tau, n in ranks.items()}


def multi_compose(u: MultiPerm, v: MultiPerm) -> MultiPerm:
    _check_same_shape(u, v)
    return {tau: compose(u[tau], v[tau]) for tau in u}


def multi_inverse(w: MultiPerm) -> MultiPerm:
    return {tau: inverse(part) for tau, part in w.items()}


def multi_length(w: MultiPerm) -> int:
    return sum(length(part) for part in w.values())


def multi_longest(ranks: Dict[str, int]) -> MultiPerm:
    return {tau: longest_element(n) for tau, n in ranks.items()}


def multi_bruhat_leq(u: MultiPerm, v: MultiPerm) -> bool:
    """Componentwise Bruhat order on a product of symmetric groups."""
    _check_same_shape(u, v)
    return all(bruhat_leq(u[tau], v[tau]) for tau in u)


def multi_simple_reflection(ranks: Dict[str, int], tau: str, i: int) -> MultiPerm:
    out = multi_identity(ranks)
    out[tau] = simple_reflection(ranks[tau], i)
    return out


def multi_reduced_word(w: MultiPerm) -> Tuple[Tuple[str, int], ...]:
    """Deterministic reduced word as (label, simple index) letters, in
    multiplication order (left to right).

    Built by repeatedly removing the smallest right descent, ties across
    factors broken by smallest simple index and then smallest label, so
    the output is reproducible across runs.

    >>> multi_reduced_word({"b": (2, 1), "a": (2, 1)})
    (('b', 1), ('a', 1))
    """
    rev = []
    cur = dict(w)
    while True:
        cands = [(i, tau) for tau in cur for i in right_descents(cur[tau])]
        if not cands:
            break
        i, tau = min(cands)
        rev.append((tau, i))
        lst = list(cur[tau])
        lst[i - 1], lst[i] = lst[i], lst[i - 1]
        cur[tau] = tuple(lst)
    return tuple((tau, i) for tau, i in reversed(rev))


def freeze(w: MultiPerm) -> Tuple[Tuple[str, Perm], ...]:
    """Canonical hashable form, labels in sorted order."""
    return tuple((tau, tuple(w[tau])) for tau in sorted(w))


def sort_key(w: MultiPerm):
    """Deterministic ordering key: (length, one-line notation, label order)."""
    return (multi_length(w), tuple(w[tau] for tau in sorted(w)), tuple(sorted(w)))


if __name__ == "__main__":
    import doctest

    doctest.testmod()

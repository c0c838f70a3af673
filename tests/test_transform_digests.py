"""Pinned outcomes of every public transformation on fixed inputs.

Each case runs one transformation over a fixed set of inputs and records,
per call, the method and tree tuple of the returned sequence or the error
type and message it raised.  The SHA-256 of ``repr`` of that list is pinned
below; the digests were recorded while the transformations still converted
trees between tuples and masks at every step, so keeping trees as masks
internally cannot silently change a sequence, its order or an error.
Every input tree is a plane spanning tree of its drawing.
"""

import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

from treespan.drawing import classify_cylindrical, classify_monotone
from treespan.errors import TreespanError
from treespan.generators import GenSpec, generate
from treespan.transforms import (
    cmonotone_to_spine,
    monotone_to_spine,
    star_to_star,
    transform,
    transform_cylindrical,
    transform_special,
)
from treespan.trees import enumerate_plane_trees

from conftest import P, polar_k4, polar_k5, straight_line_drawing


def _sq():
    return straight_line_drawing([P(0, 0), P(4, 1), P(5, 5), P(1, 4)])


def _m4():
    return straight_line_drawing([P(0, 0), P(1, 1), P(2, -1), P(3, 0)])


def _gen(cls, n, seed, a=None, b=None):
    return generate(GenSpec(cls=cls, n=n, seed=seed, a=a, b=b))


def _outcome(fn, *args):
    try:
        seq = fn(*args)
    except (TreespanError, ValueError) as ex:
        return (type(ex).__name__, str(ex))
    return (seq.method, seq.trees)


def _pairs(trees, k, seed):
    rng = random.Random(seed)
    return [(rng.choice(trees), rng.choice(trees)) for _ in range(k)]


def _sample(trees, k, seed):
    rng = random.Random(seed)
    return [rng.choice(trees) for _ in range(k)]


def case_cylindrical_2x3():
    d = _gen("cylindrical", 5, 0, 2, 3)
    roles = classify_cylindrical(d, F(1), F(4))
    trees = enumerate_plane_trees(d)
    return [_outcome(transform_cylindrical, d, roles, t1, t2)
            for t1, t2 in itertools.product(trees, repeat=2)]


def case_cylindrical_3x3():
    d = _gen("cylindrical", 6, 3, 3, 3)
    roles = classify_cylindrical(d, F(1), F(4))
    trees = enumerate_plane_trees(d)
    return [_outcome(transform_cylindrical, d, roles, t1, t2)
            for t1, t2 in _pairs(trees, 3000, 33)]


def case_special():
    out = []
    sq = _sq()
    trees = enumerate_plane_trees(sq, kind="special")
    out += [_outcome(transform_special, sq, t1, t2)
            for t1, t2 in itertools.product(trees, repeat=2)]
    for d, seed in ((polar_k5(), 5), (_gen("random_points", 7, 1), 7),
                    (_gen("convex", 8, 1), 8)):
        trees = enumerate_plane_trees(d, kind="special")
        out += [_outcome(transform_special, d, t1, t2)
                for t1, t2 in _pairs(trees, 300, seed)]
    return out


def case_star_to_star():
    out = []
    for d in (_sq(), polar_k5(), _gen("random_points", 7, 1), _gen("convex", 8, 1)):
        out += [_outcome(star_to_star, d, g, r)
                for g, r in itertools.product(range(d.n), repeat=2)]
    return out


def case_monotone():
    out = []
    for d in (_m4(), _sq(), _gen("monotone_perturbed", 6, 1),
              _gen("monotone_perturbed", 6, 2)):
        spine = classify_monotone(d)
        out += [_outcome(monotone_to_spine, d, spine, t)
                for t in enumerate_plane_trees(d)]
    return out


def case_cmonotone_corridor():
    out = [_outcome(cmonotone_to_spine, polar_k5(), t)
           for t in enumerate_plane_trees(polar_k5())]
    for seed in (2, 3):
        d = _gen("strongly_cmonotone", 6, seed)
        out += [_outcome(cmonotone_to_spine, d, t)
                for t in _sample(enumerate_plane_trees(d), 20, seed)]
    return out


def case_cmonotone_cut():
    out = [_outcome(cmonotone_to_spine, polar_k4(), t)
           for t in enumerate_plane_trees(polar_k4())]
    for seed in (1, 7):
        d = _gen("strongly_cmonotone", 6, seed)
        out += [_outcome(cmonotone_to_spine, d, t)
                for t in _sample(enumerate_plane_trees(d), 4, seed)]
    return out


def case_cli_monotone():
    out = []
    for d, k in ((_sq(), None), (_gen("monotone_perturbed", 6, 1), 200)):
        trees = enumerate_plane_trees(d)
        pairs = (itertools.product(trees, repeat=2) if k is None
                 else _pairs(trees, k, 61))
        out += [_outcome(transform, d, t1, t2, "monotone")
                for t1, t2 in pairs]
    return out


def case_cli_cmonotone():
    out = []
    for d in (polar_k5(), polar_k4()):
        trees = enumerate_plane_trees(d)
        out += [_outcome(transform, d, t1, t2, "cmonotone")
                for t1, t2 in _pairs(trees, 60, d.n)]
    d = _gen("strongly_cmonotone", 6, 2)
    out += [_outcome(transform, d, t1, t2, "cmonotone")
            for t1, t2 in _pairs(enumerate_plane_trees(d), 10, 62)]
    return out


CASES = {name[len("case_"):]: fn for name, fn in globals().items()
         if name.startswith("case_")}

# cli_cmonotone and cli_monotone were re-pinned when the spine route began
# answering T -> T with (T,): only those calls' outcomes changed
DIGESTS = {
    "cli_cmonotone": "c2f18b11a1e416ff021c2dd7c94fa6a2ec171efcf6983c8076bbf141f285a9f2",
    "cli_monotone": "a5f88e59f44c55c47ecb00ab577f5915d32cb31962319002d5a6e1f87c49acde",
    "cmonotone_corridor": "99bc72b3e6b9b620af95ff1259a795f04ab469ed0c2fbedc59794a886fbf6e1b",
    "cmonotone_cut": "1c101960335955b756fb71172acf831a402d86358e6e49733965fc5c378c1b0f",
    "cylindrical_2x3": "63be27738eda5edcea1835cd3dd0522275ee087323c132198892b697b9e7c4a1",
    "cylindrical_3x3": "217c8e2cb4802b4a6bc43bd5c5c22bfd4550087b56c0cb055ea6eba9107ae3c9",
    "monotone": "20caf23948c4400f625e6bd2b702cd1d318439f2880c49f65015ab7b7d0243c8",
    "special": "805331266506fae7edd0eae537a89675d1d9b791e7b0067efb39e3957a5d8d21",
    "star_to_star": "836c1a93a443ae28c7081d8025e1a9e3c39b4598a194eb85a51f7395f18ed950",
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_transformations_pinned(name):
    assert _sha(CASES[name]()) == DIGESTS[name]

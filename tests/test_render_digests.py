"""Golden digests of rendered SVG.

``render_svg`` promises byte-identical output for identical input, and
``test_render_two_page_deterministic`` checks only that two calls agree.
Each case below pins the SHA-256 of the SVG bytes for one drawing, with
and without highlighted trees: straight and bent cartesian drawings, a
polar one (sampled pieces and vertex points mapped to the plane), a
cylindrical one and the bipartite fixture.  The digests were recorded
before the polar-to-plane conversion was folded into one helper.
"""

import hashlib

import pytest

from treespan.generators import GenSpec, fixture_bipartite_isolated, generate
from treespan.render import render_svg


def _star_and_path(n):
    return [[(0, v) for v in range(1, n)], [(v, v + 1) for v in range(n - 1)]]


def _case(name):
    if name == "bipartite":
        d, tree = fixture_bipartite_isolated()
        return d, [tree]
    spec = {"random_points": GenSpec(cls="random_points", n=6, seed=2),
            "monotone_perturbed": GenSpec(cls="monotone_perturbed", n=5, seed=401),
            "strongly_cmonotone": GenSpec(cls="strongly_cmonotone", n=5, seed=1),
            "cylindrical": GenSpec(cls="cylindrical", n=5, seed=0, a=2, b=3)}[name]
    d = generate(spec)
    return d, _star_and_path(d.n)


# name -> (digest without highlights, digest with them)
GOLDEN = {
    "random_points": (
        "3d3c08a3d3a32e7d34b2ae4fca509c09f282f8356f83fc462b873de2a67f174b",
        "9bf67f50d0f7f82926405fadeb0d4f9bb79c67b4d63eb7d95af51c4cea203b15"),
    "monotone_perturbed": (
        "a730b868b2dfaa4069f873cad4584f27c18c591356d45d7c1940dbe1183898d8",
        "dc1e371bf43f5d3962de01ae7ed1093545456e191fe935bf31dd33c82af5050b"),
    "strongly_cmonotone": (
        "598f600d057d1eacc662ec4b8f47f73a86bd3f922817b2050153fe0830d5607a",
        "b7f2382a6fe2ddb96a9403beea82b2d2176a37262176460cd99c0b37ccaa4f0c"),
    "cylindrical": (
        "c22bddebe0c7f9ca3209bb30c75316e849420cde17eee3878abd12739a9a1313",
        "b76baf7044a8b5dcc456d30be9add01434eea8abd3696895f5f7668d3528e15f"),
    "bipartite": (
        "c90163431fc4bb5546b0b0bebb10047ba5f23420c9a8f05814910adda01666f6",
        "20424a971060754fe832e5b4d4763cce78850c27e7e79e5951f3a9bc32135280"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rendered_svg_pinned(name):
    d, trees = _case(name)
    got = tuple(hashlib.sha256(render_svg(d, h).encode()).hexdigest()
                for h in ((), trees))
    assert got == GOLDEN[name]

"""Pinned answers, and the sparse form every vector is held in.

The digests are sha256 over exact results of the construction, Bs(J), the
TAG bracket and the homology, each in a form that does not depend on how
vectors are held: a vector is the list of its nonzero
``[index, str(coefficient)]`` pairs.  They were recorded from the
dense-vector implementation, so they also pin that the sparse one gives
the same answers bit for bit.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from freejordan.homology import compute_homology
from freejordan.jordan import build_free_jordan
from freejordan.tag import build_tag, inner_rank_diagnostic
from reference import multiply, structure_constants_json


def _pairs(vec):
    return [[k, str(c)] for k, c in vec]


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def answer_digests(d1, d2, degree, r_max):
    alg = build_free_jordan(d1, d2, degree)
    tag = build_tag(alg, degree)
    algebra = {
        "parities": {str(n): list(p) for n, p in sorted(alg.parities.items())},
        "labels": {str(n): list(v) for n, v in sorted(alg.labels.items())},
        "tables": {
            f"{i},{j}": [[_pairs(vec) for vec in row] for row in tab]
            for (i, j), tab in sorted(alg.tables.items())
        },
    }
    bs = {
        str(n): {
            "coords": [list(c) for c in comp.coords],
            "parities": list(comp.parities),
            "labels": list(comp.labels),
            "lifts": list(comp.lifts),
            "projection": [_pairs(vec) for vec in comp.projection],
        }
        for n, comp in sorted(tag.bs.items())
    }
    return {
        "algebra": _digest(algebra),
        "bs": _digest(bs),
        "structure_constants": _digest(structure_constants_json(tag)),
        "homology": _digest(compute_homology(tag, r_max, degree).to_json_dict()),
    }


# (d1, d2, degree, r_max) -> digests
PINNED = {
    (2, 0, 5, 4): {
        "algebra": "b810f0b49ee7ff0aa9646d80f2b6b694d4a1c72bc248ecb8593c445dc471c0ac",
        "bs": "a5b8f325194f52d1a8ab6d54f17c3ad2193b123603442e2973e5b254a965e3c2",
        "structure_constants": "f6684e4f56d245b90b847bf34cb3feed08123cb4c88adb8202c45368e10c64f2",
        "homology": "3138bf1821b6490db8519a6b96a4c02ee2acf74dc8280dbb6859236f97353d86",
    },
    (1, 1, 5, 5): {
        "algebra": "47a0df615adc727cb363ae16e73284028c0d1fb6f4ec941e7325db66734b6496",
        "bs": "307ade3427e26e170222e06cd8e22b9b388f9b6b821f46295f1cb666493c2ff6",
        "structure_constants": "e1fc045eaa43222e9cb590c45797b1df13df44acffc0c63c9f8ae17425925a9e",
        "homology": "64c6836b5097861770b942c86c122c39103210b25e7657f98c5f4149cc2ecb5a",
    },
    (0, 2, 6, 4): {
        "algebra": "33c6b92f17b569b2cc7c0c595ac58119dac4bc0d19291bfba4d45da50a1765bb",
        "bs": "0e48d22faf622a472a931026316964ca92ea57db29341f08a31a3df80792b1ab",
        "structure_constants": "5ea5d54d1f75afde091f7614eb195b2eeb275203e8ce40a2222289fff3c5b331",
        "homology": "f86df864dfbfc80353cae54b3f269efda68432503b04ceae0f851270c4178154",
    },
    # Both the table scale T and the Bs projection scale P exceed 1 here;
    # the bracket table's scale is 48.
    (2, 0, 6, 3): {
        "algebra": "1d1bf0b004caecb6714dc48070b6319a707fbe116a70b62debaadf3470d8e2d7",
        "bs": "411914e05991a274ebf4a11cfdc655ef307e20debdc03752312e57027aa55e22",
        "structure_constants": "b5ea60124acbc0fbfd6fa678b3f912231b9b3613d6226b17eba27b6bc898f760",
        "homology": "349dba11b4ba07c8dd421162cc02dc7deb7c4d050dedd66d0d4241ccca8aab68",
    },
}


@pytest.mark.parametrize("shape", sorted(PINNED), ids=lambda s: "({}|{})@{} r<={}".format(*s))
def test_answers_match_pinned_digests(shape):
    assert answer_digests(*shape) == PINNED[shape]


def _is_sparse(vec) -> bool:
    """Sorted pairs with distinct indices and no zero coefficient."""
    idx = [k for k, _ in vec]
    return idx == sorted(set(idx)) and all(c for _, c in vec)


def test_every_vector_is_sparse():
    alg = build_free_jordan(1, 1, 5)
    tag = build_tag(alg, 5)
    for n in tag.bs:
        inner_rank_diagnostic(tag, n)
    entries = [vec for tab in alg.tables.values() for row in tab for vec in row]
    projections = [vec for comp in tag.bs.values() for vec in comp.projection]
    columns = [col for cols in tag._derivations.values() for col in cols]
    rng = random.Random(3)
    products = []
    for _ in range(200):
        i, j = rng.randint(1, 3), rng.randint(1, 2)
        x, y = (
            tuple((u, Fraction(rng.choice([-2, -1, 1, 2]))) for u in range(alg.dim(d))
                  if rng.random() < 0.6)
            for d in (i, j)
        )
        products.append(multiply(alg, i, x, j, y))
    for name, vecs in [("table", entries), ("projection", projections),
                       ("derivation", columns), ("product", products)]:
        assert any(vecs), name
        assert all(map(_is_sparse, vecs)), name

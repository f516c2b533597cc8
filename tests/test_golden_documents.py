"""Byte identity of the waring documents deborder writes for the families.

The digests pin the exact output of the pipeline: a change to the arithmetic
or expansion kernels must leave every document byte-for-byte as it was.  They
were recorded before the kernels gained their fast paths (monomial gcd,
tabled form powers, O(n^2) Vandermonde solve), except that of osculating6_2
at the default config: it runs a dense solve of degree 2, and was recorded
again when the dense solve moved from random draws to the sheared lattice
forms x0 + sum_i (a_i + |a|) x_i.  The dense digests pin ``dense_decompose``
on cubics in 4 and 5 variables (square systems of 20 and 35 unknowns); they
were recorded on those forms.
The expansion digests pin ``B.expand()`` of border certificates and
``W.expand()`` of their Waring decompositions, coefficient by coefficient;
they were recorded on the per-term scalar loop, before expansion moved onto
integers.
The trace pins hold each deborder run's full recursion trace, (case, rank,
degree, branch_i, branch_k) per step; they were recorded before the route
functions were folded into one per-level unit.  The two random certificates
are the only golden inputs that take the nonlocal route (random5_3_5_s8 at
y_size 1) or hold a top-level local group of rank 1 (random4_5_5_s21).
The pins of osculating6_3, unit_denominator and composed_dense_n4_r9 were
recorded before border certificates held their weights as cleared rows:
osculating6_3 at the forced split runs a dense solve of degree 2 inside a
derivative branch, and the other two carry the non-monomial denominator
1 + eps through the local route and through nonlocal splits.
The pins of tangent5_in3, osculating6_3_in3, multibase5_in5 and
unit_multibase5_in5 were recorded while inessential variables were still
rotated away (f and B composed with T = [e_J | K], then restricted) rather
than restricted away.  They are the only golden inputs whose top level is
inessential: tangent5 and osculating6_3 under (x, y) -> (x - y, z) keep the
coordinates 0 and 2, not a prefix, and multibase5 in five variables has a
kernel (-1, 0, 0, 1, 1) with entries on the kept coordinates;
unit_multibase5_in5 carries the denominator 1 + eps through that restriction.
"""

import hashlib
import json
import random
from fractions import Fraction
from math import comb

import pytest

from waring import (
    BorderDecomposition,
    DeborderConfig,
    EpsPoly,
    EpsScalar,
    HomoPoly,
    LinearForm,
    SingularMatrixError,
    deborder,
    dense_decompose,
    gen_multibase,
    gen_osculating,
    gen_random,
    gen_tangent,
)
from waring.linalg import rat_inverse
from waring.poly import falling_factorial, monomials_of_degree
from waring.serialize import dumps_document, eps_scalar_to_json, rational_to_str
from conftest import (
    SHEAR_IN_3,
    SHEAR_IN_5,
    compose_with_unit_denominators,
    embed_certificate,
    frozen_certificate,
    unit_denominator_tangent,
)

CONFIGS = {
    "default": DeborderConfig(),
    "split": DeborderConfig(y_size=1, base_threshold=1),
    "y1": DeborderConfig(y_size=1),
    "y2": DeborderConfig(y_size=2),
}

GENERATORS = {f"tangent{d}": (gen_tangent, (d,)) for d in range(3, 9)}
GENERATORS["osculating6_2"] = (gen_osculating, (6, 2))
GENERATORS["osculating6_3"] = (gen_osculating, (6, 3))
GENERATORS["multibase5"] = (gen_multibase, (5,))
GENERATORS["random5_3_5_s8"] = (frozen_certificate, ("random5_3_5_s8",))
GENERATORS["random4_5_5_s21"] = (frozen_certificate, ("random4_5_5_s21",))
# divided-difference blocks: a rank-3 local level and a rank-3 nonlocal one
# inside derivative branches both end in a dense solve (BASE)
GENERATORS["random3_3_5_s10"] = (gen_random, (3, 3, 5, 10))
GENERATORS["unit_denominator"] = (unit_denominator_tangent, ())
GENERATORS["composed_dense_n4_r9"] = (lambda: composed_dense_certificate(21, 4, 3, (1, 2), 4), ())
GENERATORS["tangent5_in3"] = (lambda: embed_certificate(*gen_tangent(5), SHEAR_IN_3), ())
GENERATORS["osculating6_3_in3"] = (lambda: embed_certificate(*gen_osculating(6, 3), SHEAR_IN_3), ())
GENERATORS["multibase5_in5"] = (lambda: embed_certificate(*gen_multibase(5), SHEAR_IN_5), ())
GENERATORS["unit_multibase5_in5"] = (lambda: unit_multibase5_in5(), ())

SHA256 = {
    ("tangent3", "default"): "ee37282d48af9a5d630dc3bc58de99fdd3f6b4a6d8f9aeaa59f620ed9bcd14b7",
    ("tangent3", "split"): "d037fcb5d31e49d12a8c06c76ad1e35877862c23e0f153e054e1a573557d91fc",
    ("tangent4", "default"): "edd4cce531283448e5ee2d77bf3f1abc3cb6731eecaf18c1074f7a48db6a9867",
    ("tangent4", "split"): "88d3df7b5dada508532508ad20baa7c13848039d6c88332bb87c3e044dfc700e",
    ("tangent5", "default"): "72fb0479d76b8491279c466766510e550ba5001cefb62b0cbb4367da7fa127b2",
    ("tangent5", "split"): "09e256e2d75ff2586a161c3d4eeeb57e5b9af20889f22583d1dc4154fb5e24a1",
    ("tangent6", "default"): "ce8d8563e5554e26ebdc23d7bf99543089d12fea0fd5dff03f2d90e1f366a77d",
    ("tangent6", "split"): "158f95278afaefd52e48052d199da3a2c1e0ce9e2edcb254b25ce0b0788afdf5",
    ("tangent7", "default"): "3244981ecdc9e6a7a8a749446fd6c240a8ecc732644fa8fc73548ecc8a4691ac",
    ("tangent7", "split"): "09dcd8fc9f9014a6ad9af0c51e791ef038006ccc0e7ffe7ea9c546d434a336a8",
    ("tangent8", "default"): "8134c8746ca75e25eaf932bcdf2e2a68f42215654dee6271984b0197153b0922",
    ("tangent8", "split"): "ec69a7edf48baf1dc4877f20d6be9777c7c0a411a74e0897b8ee5bf7f6ecc7cc",
    ("osculating6_2", "default"): "4be182a6deef8a04d54db499c92c90324538c0c9c2f6a44358b9ea699151fe05",
    ("osculating6_2", "split"): "58aaede229ed0cf8546ab91d2d2f9428d85442a09d1dcda79e573b939867fe07",
    ("multibase5", "default"): "032689c0d5705422b832d53fce379377db116d4432f77ec028dfb1311b6b9a63",
    ("multibase5", "split"): "155daa0149ee7aa0d015cdbd1742ba7f5ed66b2f04a0cb38eab6d1d5dac16cdf",
    ("random5_3_5_s8", "y1"): "64afaf01b1cce8ae3ce3f8a6e63da19dd09d2dd440104725eed6cc474f3ca333",
    ("random4_5_5_s21", "y2"): "0d3c5f03c1d3dcee9ee2adb762c0f75584bfa848dc91037ac323c5ffa4205336",
    ("random3_3_5_s10", "split"): "48629b4291d79c3531b63629ef0c89dfc08272be36b343595a9c6fef18d59c92",
    ("osculating6_3", "split"): "b2e76ac0372ee2c0dfa10d424c07b9dc16b456fe348166691f306ffd0e078d46",
    ("unit_denominator", "default"): "ee37282d48af9a5d630dc3bc58de99fdd3f6b4a6d8f9aeaa59f620ed9bcd14b7",
    ("unit_denominator", "split"): "ecf0a36526da840644eb02122a13256b56a5e7701cbefbbf2c06f0a814127f03",
    ("composed_dense_n4_r9", "split"): "0f373246a687bbbfd557439137da15c648578b91c2439585697a0cc18586f4b0",
    ("tangent5_in3", "default"): "083ad31057372ae1db74312dd2c9804e37bed436ca5cfb6c8a6d041e3c9ddd2d",
    ("tangent5_in3", "split"): "090222c5b0c066ebcd41446d7962d9268cc78b748aa6208ede1bf237d36f1d2b",
    ("osculating6_3_in3", "default"): "32b6cf403871bfb5f5d410f18f1c62b5886eaa47e3616b3209440de98f107c40",
    ("osculating6_3_in3", "split"): "e6bed004276f5656b1ce6e3d0a85ae08701e18f2fa2a9a4d534b33cca40128c5",
    ("multibase5_in5", "default"): "de6411c1360870bcebd31df6d277cd4c22ed49964ff76b04aaef9bfda9ed2cc9",
    ("multibase5_in5", "split"): "9aefaf70e47d0d977a19ba317b9655abdb4bcb30c5c2b8ad75274846ededf739",
    ("unit_multibase5_in5", "split"): "9aefaf70e47d0d977a19ba317b9655abdb4bcb30c5c2b8ad75274846ededf739",
}

# (case, rank, degree, branch_i, branch_k) of every recursion step
TRACES = {
    ("multibase5", "default"): [
        ("LOCAL", 2, 5, 0, 0), ("BASE", 2, 1, 0, 0), ("LOCAL", 2, 5, 0, 0), ("BASE", 2, 1, 0, 0),
    ],
    ("multibase5", "split"): [
        ("LOCAL", 2, 5, 0, 0), ("LOCAL", 1, 4, 1, 1), ("LOCAL", 2, 5, 0, 0), ("LOCAL", 1, 4, 1, 1),
    ],
    ("osculating6_2", "default"): [("LOCAL", 3, 6, 0, 0), ("BASE", 3, 2, 0, 0)],
    ("osculating6_2", "split"): [
        ("LOCAL", 3, 6, 0, 0), ("LOCAL", 2, 4, 1, 2), ("BASE", 2, 1, 1, 2),
    ],
    ("random4_5_5_s21", "y2"): [
        ("LOCAL", 2, 5, 0, 0), ("BASE", 2, 1, 0, 0), ("LOCAL", 1, 5, 0, 0),
    ],
    ("random3_3_5_s10", "split"): [
        ("NONLOCAL", 5, 3, 0, 0), ("BASE", 5, 3, 0, 0), ("LOCAL", 3, 2, 1, 1),
        ("BASE", 3, 2, 1, 1), ("BASE", 3, 1, 1, 2),
    ],
    ("random5_3_5_s8", "y1"): [
        ("NONLOCAL", 5, 3, 0, 0), ("BASE", 5, 3, 0, 0), ("LOCAL", 1, 2, 1, 1),
        ("LOCAL", 1, 1, 1, 2), ("LOCAL", 1, 2, 2, 1), ("LOCAL", 1, 1, 2, 2),
    ],
    ("osculating6_3", "split"): [
        ("LOCAL", 4, 6, 0, 0), ("LOCAL", 3, 3, 1, 3), ("BASE", 3, 2, 1, 3),
    ],
    ("unit_denominator", "default"): [("LOCAL", 2, 3, 0, 0), ("BASE", 2, 1, 0, 0)],
    ("unit_denominator", "split"): [
        ("LOCAL", 2, 3, 0, 0), ("BASE", 2, 1, 0, 0), ("LOCAL", 1, 2, 1, 1),
    ],
    ("composed_dense_n4_r9", "split"): [
        ("NONLOCAL", 9, 3, 0, 0), ("BASE", 9, 3, 0, 0), ("NONLOCAL", 5, 2, 1, 1),
        ("BASE", 5, 2, 1, 1), ("LOCAL", 1, 1, 1, 1), ("LOCAL", 1, 1, 2, 1),
        ("BASE", 4, 1, 1, 2), ("NONLOCAL", 5, 2, 2, 1), ("BASE", 5, 2, 2, 1),
        ("LOCAL", 1, 1, 1, 1), ("BASE", 4, 1, 2, 2), ("BASE", 4, 2, 3, 1),
        ("BASE", 3, 1, 3, 2),
    ],
}
for _d in range(3, 9):
    TRACES[f"tangent{_d}", "default"] = [("LOCAL", 2, _d, 0, 0), ("BASE", 2, 1, 0, 0)]
    TRACES[f"tangent{_d}", "split"] = [("LOCAL", 2, _d, 0, 0), ("LOCAL", 1, _d - 1, 1, 1)]
TRACES["tangent5_in3", "default"] = TRACES["tangent5", "default"]
TRACES["tangent5_in3", "split"] = TRACES["tangent5", "split"]
TRACES["osculating6_3_in3", "default"] = [("LOCAL", 4, 6, 0, 0), ("BASE", 4, 3, 0, 0)]
TRACES["osculating6_3_in3", "split"] = TRACES["osculating6_3", "split"]
TRACES["multibase5_in5", "default"] = TRACES["multibase5", "default"]
TRACES["multibase5_in5", "split"] = TRACES["multibase5", "split"]
TRACES["unit_multibase5_in5", "split"] = TRACES["multibase5", "split"]


@pytest.mark.parametrize("name,config", sorted(SHA256))
def test_waring_document_bytes_are_unchanged(name, config):
    gen, args = GENERATORS[name]
    f, B = gen(*args)
    W, report = deborder(f, B, CONFIGS[config])
    digest = hashlib.sha256(dumps_document("waring", W).encode()).hexdigest()
    assert digest == SHA256[name, config]
    trace = [(t.case, t.rank, t.degree, t.branch_i, t.branch_k) for t in report.trace]
    assert trace == TRACES[name, config]


def seeded_cubic(nvars, seed, rational):
    """About 60% of the cubic monomials, coefficients in [-9, 9] (over 1..7)."""
    rng = random.Random(seed)
    terms = {}
    for m in monomials_of_degree(nvars, 3):
        if rng.random() < 0.4:
            continue
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 7) if rational else 1)
        if c:
            terms[m] = c
    return HomoPoly(nvars, 3, terms)


# name: (nvars, seed of the cubic, rational coefficients)
DENSE_CUBICS = {
    "n4_int": (4, 11, False),
    "n4_rational": (4, 12, True),
    "n5_int": (5, 13, False),
    "n5_rational": (5, 14, True),
}

DENSE_SHA256 = {
    "n4_int": "3daef6b46a9e4e9dbc112bef72a28d05f9a28f2419003459be537f1fe0f31c94",
    "n4_rational": "e46d42bf0a6610f643f68f6948e34d4cfd92b8c4fe118001071d0717e71d8b07",
    "n5_int": "35d6824addf269a0cdfb80ac52c30a6f8d466c55c0fad6f8ee3b4cf4153c5492",
    "n5_rational": "5bac3c9c6fd2378ba4d0a866513bbb9858e22b83eba9ff6459d77c83b22e4677",
}


@pytest.mark.parametrize("name", sorted(DENSE_SHA256))
def test_dense_decompose_document_bytes_are_unchanged(name):
    nvars, seed, rational = DENSE_CUBICS[name]
    W = dense_decompose(seeded_cubic(nvars, seed, rational))
    digest = hashlib.sha256(dumps_document("waring", W).encode()).hexdigest()
    assert digest == DENSE_SHA256[name]


# -- expansions ----------------------------------------------------------------


def expansion_digest(f):
    """sha256 of the coefficients of f, in graded-lex order of the monomials."""
    terms = []
    for m in f.monomials():
        c = f.coeff(m)
        terms.append([list(m), rational_to_str(c) if isinstance(c, Fraction)
                      else eps_scalar_to_json(c)])
    return hashlib.sha256(json.dumps(terms, sort_keys=True).encode()).hexdigest()


def rand_rational(rng):
    return Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))


def dense_certificate(seed, n, d, orders, plain):
    """A GL_n(Q) image of osculating blocks (divided differences on the
    variable pairs) plus plain rational powers, and its limit."""
    rng = random.Random(seed)
    E = EpsScalar
    summands = []
    f = HomoPoly.zero(n, d)
    pairs = list(range(n))
    rng.shuffle(pairs)
    for b, j in enumerate(orders):
        a, c = pairs[2 * b], pairs[2 * b + 1]
        scale = rand_rational(rng)
        denom = falling_factorial(d, j)
        for i in range(j + 1):
            w = E.from_rational(scale * Fraction((-1) ** (j - i) * comb(j, i), denom))
            coefs = [E.zero()] * n
            coefs[a] = E.one()
            coefs[c] = E.from_poly(EpsPoly({1: Fraction(i)})) if i else E.zero()
            summands.append((w * E.eps(-j), LinearForm(coefs)))
        exps = [0] * n
        exps[a], exps[c] = d - j, j
        f = f + HomoPoly.monomial(n, tuple(exps), scale)
    for _ in range(plain):
        coefs = [0] * n
        while not any(coefs):
            coefs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        w = rand_rational(rng)
        summands.append((E.from_rational(w), LinearForm([E.from_rational(x) for x in coefs])))
        f = f + LinearForm(coefs).power(d).scale(w)
    while True:
        A = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            rat_inverse(A)
        except SingularMatrixError:
            continue
        break
    return f.substitute_linear(A), BorderDecomposition(n, d, tuple(summands)).substitute(A)


def composed_dense_certificate(*args):
    """A dense certificate composed with I + eps/(1+eps) N: its forms carry
    the denominator 1 + eps, and its limit is unchanged."""
    f, B = dense_certificate(*args)
    return f, compose_with_unit_denominators(B)


def unit_multibase5_in5():
    f, B = embed_certificate(*gen_multibase(5), SHEAR_IN_5)
    return f, compose_with_unit_denominators(B)


EXPANSION_INPUTS = {
    "tangent5": lambda: gen_tangent(5),
    "osculating10_4": lambda: gen_osculating(10, 4),
    "multibase7": lambda: gen_multibase(7),
    "dense_n4_r9": lambda: dense_certificate(21, 4, 3, (1, 2), 4),
    "dense_n5_r6": lambda: dense_certificate(22, 5, 3, (2,), 3),
    "unit_denominator": unit_denominator_tangent,
}

EXPANSION_SHA256 = {
    ("dense_n4_r9", "border"): "fa07eb7b9ea8a7886bc1f295ddfabe4e739a920ffccde5352467ab4f66de9ced",
    ("dense_n4_r9", "waring"): "63767a962504b0ca399cd80d42861587077e2e579bbc7e949e187f9d62b8ccf3",
    ("dense_n5_r6", "border"): "b2928b324ebf31292314b2f9f8be268b07f8561a2f90b3e6dbf3b811d8d1cb4f",
    ("dense_n5_r6", "waring"): "4c70707570784fb1802e75f5da3767cefd31c7ffcfa03136880968fbd3b35ea6",
    ("multibase7", "border"): "d0415c9fafa78a42efe0589708202fac1ae9a5ace2b6c6c3e8e49e2d7d3e4275",
    ("multibase7", "waring"): "9f7c8f91f0783319b7c073fe4db608491690979717fd58c2b90c1ff143873fef",
    ("osculating10_4", "border"): "07c2e8db153a6db4019503b5e62eb4a166941e636735e814000d7749d279e31a",
    ("osculating10_4", "waring"): "2939cc61a815ccbdcd41f7ccbe12813d9c293b62343302862533df907cbcc028",
    ("tangent5", "border"): "012b47fd7f53f415a833ce88d5eeed96fac0b98105144cd2e26f9c40a4029cf3",
    ("tangent5", "waring"): "27347d4fddc867bee1ce5fdfb332b453713b014fe3a75d0436685399aeea23b8",
    ("unit_denominator", "border"): "bd6171d2e4ba7dfff1985397850724251c35b2cc1f126d2360c7a5564af44960",
    ("unit_denominator", "waring"): "52a85fafba7bd5045558c5bd270625926aa04f648fe080895532b3be984df5c7",
}


@pytest.mark.parametrize("name,which", sorted(EXPANSION_SHA256))
def test_expansion_coefficients_are_unchanged(name, which):
    f, B = EXPANSION_INPUTS[name]()
    if which == "border":
        S = B.expand()
    else:
        W, _ = deborder(f, B)
        S = W.expand()
        assert S == f
    assert expansion_digest(S) == EXPANSION_SHA256[name, which]


# The nonlocal route on the dense certificates: staircase, dense solve and the
# way back.  The expansion digests above cannot pin it, since W.expand()
# equals the target whatever W is.
DENSE_ROUTE_SHA256 = {
    "dense_n4_r9": "5b935d96b51667c6074180df5f35b862288fbefec614b4d084c894d7c464e806",
    "dense_n5_r6": "63bbb1f30da89550fa9d04d546244568c7787781922c79d3be129145e7df8979",
}


@pytest.mark.parametrize("name", sorted(DENSE_ROUTE_SHA256))
def test_dense_route_document_bytes_are_unchanged(name):
    f, B = EXPANSION_INPUTS[name]()
    W, _ = deborder(f, B)
    digest = hashlib.sha256(dumps_document("waring", W).encode()).hexdigest()
    assert digest == DENSE_ROUTE_SHA256[name]


# The generated pairs themselves: (polynomial, border) documents of every
# generator over a grid, one digest per family.  Recorded while each
# generator still wrote its divided differences out by hand, before they
# were built from one block.
GENERATED_PAIRS = {
    "tangent": [(gen_tangent, (d,)) for d in range(2, 21)],
    "osculating": [(gen_osculating, (d, j)) for d in range(2, 13) for j in range(1, d)],
    "multibase": [(gen_multibase, (d,)) for d in range(2, 13)],
    "random": [(gen_random, (n, d, r, s)) for n in range(1, 6) for d in (1, 2, 3, 5)
               for r in (1, 2, 3, 5, 8) for s in range(4)],
}

GENERATED_SHA256 = {
    "tangent": "b1bb69f98bc1201f0a490e49c41aaa3ce015ed086bdd2a1d17f7d22d8b833c22",
    "osculating": "110faf21d23d8f3974c3393bcfc94e77beba3714ab780ccad5835f8bcc0bf73f",
    "multibase": "e7ddc848f8b3eb923438725c90540f82c48e24258efc19d99718ab67390c7c5b",
    "random": "3d37fe9b316d2075a72245224efb0f41e296f3bdb6660ebb7cb99549e3edc0c0",
}


@pytest.mark.parametrize("family", sorted(GENERATED_SHA256))
def test_generated_pair_bytes_are_unchanged(family):
    h = hashlib.sha256()
    for gen, args in GENERATED_PAIRS[family]:
        f, B = gen(*args)
        h.update((dumps_document("polynomial", f) + dumps_document("border", B)).encode())
    assert sum(map(len, GENERATED_PAIRS.values())) == 496
    assert h.hexdigest() == GENERATED_SHA256[family]

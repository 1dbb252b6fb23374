"""Tests for family construction, the residual identity, and certification."""

from __future__ import annotations

import hashlib
import inspect
import json

import pytest

from akforge.bounds import ratio_table, steenbrink_inertia
from akforge.classify import AkCertificate, split_and_classify
from akforge.errors import CertificationFailed, IdentityViolation, InvalidInput
from akforge.family import (
    CurveInstance,
    FamilyCertificate,
    FamilyParams,
    build_A,
    build_F,
    certify_member,
    family_params,
    verify_eq2,
)
from akforge.milnor import MilnorReport, milnor_fulton
from akforge.poly import SparsePoly, parse_poly
from akforge.series import Weights, invert_change


def test_family_params_values():
    assert family_params(0) == FamilyParams(0, 1, 2, 9, 42)
    assert family_params(1) == FamilyParams(1, 4, 9, 37, 731)
    assert family_params(2) == FamilyParams(2, 7, 16, 65, 2260)


def test_family_params_identities():
    for s in range(51):
        p = family_params(s)
        assert p.d == 4 * p.m + 1 == 7 * p.l + p.m == 28 * s + 9
        assert p.k + 1 == p.l * (20 * p.m + 3)


def test_family_params_below_the_index_limit():
    s = 10**100 - 1
    assert family_params(s).k == 420 * s * s + 269 * s + 42


def test_family_params_rejects_bad_index():
    for bad in (-1, 1.5, "0", True, False, 10**100):
        with pytest.raises(InvalidInput):
            family_params(bad)
    with pytest.raises(InvalidInput):
        certify_member(True)


def test_build_A_s0_exact():
    expected = parse_poly("x^4 + 2*x^3*y^2 - 2*x^2*y^4 + 4*x*y^6 - 10*y^8")
    assert build_A(0) == expected


def test_build_A_structure():
    for s in (0, 1, 3, 7):
        A = build_A(s)
        p = family_params(s)
        assert len(A) == 5
        assert A.coefficient(4 * p.l, 0) == 1
        assert A.coefficient(0, 4 * p.m) == -10


def test_build_F_degree_and_sample_terms():
    inst = build_F(0)
    assert inst.F.total_degree == 9
    # the -2y * (-10 y^8) product contributes +20 y^9
    assert inst.F.coefficient(0, 9) == 20
    assert inst.F.coefficient(0, 2) == 1
    assert build_F(1).F.total_degree == 37


def test_verify_eq2_small_members():
    for s in range(3):
        inst = build_F(s)
        residual = verify_eq2(inst)
        p = inst.params
        coeffs = [
            residual.coefficient(3 * p.l, 5 * p.m),
            residual.coefficient(2 * p.l, 6 * p.m),
            residual.coefficient(p.l, 7 * p.m),
            residual.coefficient(0, 8 * p.m),
        ]
        assert coeffs == [56, -56, 80, -100]
        assert len(residual) == 4


def test_verify_eq2_s0_closed_form():
    residual = verify_eq2(build_F(0))
    assert residual == parse_poly("56*x^3*y^10 - 56*x^2*y^12 + 80*x*y^14 - 100*y^16")


def test_verify_eq2_detects_tampering():
    inst = build_F(0)
    bad = CurveInstance(
        params=inst.params, F=inst.F + SparsePoly.term(1, 1, 1), A=inst.A
    )
    with pytest.raises(IdentityViolation) as err:
        verify_eq2(bad)
    assert err.value.difference == SparsePoly.term(1, 1, 1)


def test_certify_member_s0():
    cert = certify_member(0)
    assert cert.certified
    assert cert.params.k == 42
    assert cert.weights == Weights(2, 43)
    assert cert.cutoff == 86
    assert cert.newton.coeff_z2 == 1
    assert cert.newton.coeff_xk1 == 56
    assert cert.newton.violations == ()
    assert cert.bound_upper == 52
    assert cert.milnor is None


def test_certify_member_s0_with_milnor():
    cert = certify_member(0, with_milnor=True)
    assert cert.milnor is not None
    assert cert.milnor == MilnorReport(42, "fulton", 42, "exact")


def test_certify_member_s1():
    cert = certify_member(1)
    assert cert.certified
    assert cert.params.k == 731
    assert cert.newton.coeff_xk1 == 56
    assert cert.newton.violations == ()
    assert cert.params.k <= cert.bound_upper == 990


@pytest.mark.parametrize("s", [6, 20, 100])
def test_certify_member_large(s):
    # k = 16776, 173422 and 4226942: the window's x-range is of order k, while
    # the inverted series keeps a handful of terms.
    cert = certify_member(s)
    k = cert.params.k
    assert cert.certified
    assert cert.window == SparsePoly([((0, 2), 1), ((k + 1, 0), 56)])  # z^2 + 56 x^(k+1)
    assert cert.newton.violations == ()
    assert len(invert_change(build_A(s), cert.weights, cert.cutoff).body) <= 10


def revalidate_from_json(payload: dict) -> bool:
    """Re-check the segment condition using only the serialized fields."""
    k = payload["newton_certificate"]["k"]
    wx, wz = payload["inversion"]["weights"]
    cutoff = payload["inversion"]["cutoff"]
    corner_ok = {"z2": False, "xk1": False}
    for term in payload["window_terms"]:
        i, j = term["e"]
        if (i, j) == (0, 2):
            corner_ok["z2"] = term["c"] not in ("0",)
        elif (i, j) == (k + 1, 0):
            corner_ok["xk1"] = term["c"] not in ("0",)
        elif wx * i + wz * j <= cutoff:
            return False
    return corner_ok["z2"] and corner_ok["xk1"]


def test_certificate_json_schema_and_offline_recheck():
    cert = certify_member(0, with_milnor=True)
    payload = cert.to_json_dict()
    assert payload["family"] == {"s": 0, "l": 1, "m": 2, "d": 9, "k": 42}
    assert payload["eq2_identity"] == "ok"
    assert payload["inversion"] == {"weights": [2, 43], "cutoff": 86}
    nc = payload["newton_certificate"]
    assert nc["k"] == 42
    assert nc["coeff_z2"] == "1"
    assert nc["coeff_x_k_plus_1"] == "56"
    assert nc["violations"] == []
    assert payload["milnor"]["value"] == 42
    assert payload["bound"] == {"d": 9, "upper": 52, "satisfied": True}
    assert revalidate_from_json(payload)


def test_certificate_json_deterministic():
    a = json.dumps(certify_member(1).to_json_dict(), sort_keys=True)
    b = json.dumps(certify_member(1).to_json_dict(), sort_keys=True)
    assert a == b


def test_certificate_records_hold_each_fact_once():
    # the window's weights and cutoff are the family certificate's, and the
    # residual is what verify_eq2 returns; the JSON prints only "ok" for it
    assert AkCertificate._fields == ("k", "coeff_z2", "coeff_xk1", "violations")
    assert "residual" not in FamilyCertificate._fields


def test_certification_failure_carries_certificate(monkeypatch):
    import akforge.family as family_mod

    def reject(series, expected_k):
        return AkCertificate(k=expected_k, coeff_z2=1, coeff_xk1=0)

    monkeypatch.setattr(family_mod, "newton_ak_certify", reject)
    with pytest.raises(CertificationFailed) as err:
        certify_member(0)
    assert err.value.certificate is not None
    assert not err.value.certificate.certified


# sha256 of json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n",
# the bytes `akforge construct --s N` prints; the certificate must not drift.
CERT_SHA256 = {
    0: "60773f6c252cdf23138a4d527ec092b9d9bbd5bb4cbf3f6647a57e3338a212ef",
    1: "436711afd47a25dec1b82211f66e3f6be9861c95445081d1fe9cb61b57f40071",
    2: "568e0dc2265100c4d8131d9cbd771bb6993fc4bacea5458a16618d4e6c3432fc",
    4: "d6211d17c87fcd129884febc5609606f7f341e8f11c29147c3446226748871b5",
    20: "679f2d29f321e104b78ffcae9167e917d79458a26411baac2e29676a1f8c9cdc",
    10**3: "974ecbe46f55b99478e3388cf96ee6d287e3c2d226032b54d942246df598fa5d",
    10**7: "0ab7cd8e7ae7753b101bbfd1fc47a42619807b585d6f88e83e4d5ef9af7ba7c3",
}


@pytest.mark.parametrize("s", sorted(CERT_SHA256))
def test_certificate_bytes_are_pinned(s):
    text = json.dumps(certify_member(s).to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_SHA256[s]


# Each builds a fresh record; two calls give equal records.  The records
# holding a SparsePoly, which defines __eq__ alone, cannot be hashed.
RECORDS = {
    "FamilyParams": (lambda: family_params(1), True),
    "CurveInstance": (lambda: build_F(0), False),
    "FamilyCertificate": (lambda: certify_member(0), False),
    "AkCertificate": (lambda: certify_member(0).newton, True),
    "AkResult": (lambda: split_and_classify(parse_poly("y^2 + x^3")), True),
    "MilnorReport": (lambda: milnor_fulton(parse_poly("y^2 + x^3")), True),
    "InertiaIndices": (lambda: steenbrink_inertia(9), True),
    "RatioRow": (lambda: ratio_table(1)[1], True),
    "TruncatedSeries": (lambda: invert_change(build_A(0), Weights(2, 43), 86), False),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_equality_and_immutability(name):
    make, hashable = RECORDS[name]
    a, b = make(), make()
    fields = list(inspect.signature(type(a)).parameters)
    assert type(a).__name__ == name
    assert repr(a) == f"{name}({', '.join(f'{f}={getattr(a, f)!r}' for f in fields)})"
    assert a == b and a is not b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))

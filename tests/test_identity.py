import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivegsim.identity import (
    ConcealedIdentity,
    EquipmentIdentity,
    GutiAllocator,
    LongTermCredential,
    SecurityContext,
    SubscriberIdentity,
    SuciScheme,
    format_pei,
    format_supi,
    parse_pei,
    parse_supi,
)
from fivegsim.randomness import RandomStream

from oracles import below


def test_format_supi_example():
    ident = SubscriberIdentity(mcc="001", mnc="01", msin="0123456789")
    assert format_supi(ident) == "imsi-001010123456789"


def test_format_then_parse_is_identity():
    ident = SubscriberIdentity(mcc="001", mnc="01", msin="0123456789")
    assert parse_supi(format_supi(ident)) == ident


def test_msin_with_letter_rejected():
    with pytest.raises(ValueError):
        SubscriberIdentity(mcc="001", mnc="01", msin="012345678A")


@pytest.mark.parametrize("mcc,mnc,msin", [
    ("01", "01", "123"),       # short mcc
    ("0012", "01", "123"),     # long mcc
    ("001", "1", "123"),       # short mnc
    ("001", "0101", "123"),    # long mnc
    ("001", "01", ""),         # empty msin
    ("001", "01", "01234567890"),  # msin over 10 digits
])
def test_subscriber_identity_invalid_lengths(mcc, mnc, msin):
    with pytest.raises(ValueError):
        SubscriberIdentity(mcc=mcc, mnc=mnc, msin=msin)


@given(st.integers(0, 999), st.sampled_from([2, 3]), st.integers(1, 10), st.data())
@settings(max_examples=1000, deadline=None)
def test_supi_round_trip_randomized(mcc_n, mnc_len, msin_len, data):
    mcc = f"{mcc_n:03d}"
    mnc = "".join(str(data.draw(st.integers(0, 9))) for _ in range(mnc_len))
    msin = "".join(str(data.draw(st.integers(0, 9))) for _ in range(msin_len))
    ident = SubscriberIdentity(mcc=mcc, mnc=mnc, msin=msin)
    assert parse_supi(format_supi(ident), mnc_digits=len(mnc)) == ident


@given(st.integers(0, 10**15 - 1))
@settings(max_examples=1000, deadline=None)
def test_pei_round_trip_randomized(n):
    ident = EquipmentIdentity(pei=f"{n:015d}")
    assert parse_pei(format_pei(ident)) == ident


def test_pei_length_enforced():
    with pytest.raises(ValueError):
        EquipmentIdentity(pei="123")
    with pytest.raises(ValueError):
        EquipmentIdentity(pei="12345678901234X")


@pytest.mark.parametrize("n", [0, 1, 15, 64, 300])
def test_digits_draw_as_the_rejection_sampler_and_leave_the_stream_where_it_does(n):
    for seed in range(8):
        fast, slow = RandomStream(seed, "build:ue1:pei"), RandomStream(seed, "build:ue1:pei")
        assert fast.digits(n) == "".join(str(below(slow, 10)) for _ in range(n))
        assert fast.take(40) == slow.take(40)
    # the 300 digits of seed 0 redraw at least one byte
    assert max(RandomStream(0, "build:ue1:pei").take(300)) >= 250


def test_guti_allocator_distinct_and_monotone():
    alloc = GutiAllocator(RandomStream(7, "guti"))
    first = alloc.allocate()
    second = alloc.allocate()
    assert first.guti != second.guti
    assert (first.allocation_epoch, second.allocation_epoch) == (1, 2)


def test_guti_sequence_replays_under_same_seed():
    run = lambda: [GutiAllocator(RandomStream(42, "guti")).allocate().guti
                   for _ in range(1)]
    seq_a = [t for t in run()]
    seq_b = [t for t in run()]
    assert seq_a == seq_b
    alloc_a = GutiAllocator(RandomStream(42, "guti"))
    alloc_b = GutiAllocator(RandomStream(42, "guti"))
    assert [alloc_a.allocate().guti for _ in range(20)] == \
           [alloc_b.allocate().guti for _ in range(20)]


def test_concealed_identity_null_scheme_invariants():
    suci = ConcealedIdentity(mcc="001", mnc="01", scheme=SuciScheme.NULL,
                             ciphertext=b"0123456789")
    assert suci.ephemeral_public_key is None and suci.mac_tag is None
    with pytest.raises(ValueError):
        ConcealedIdentity(mcc="001", mnc="01", scheme=SuciScheme.NULL,
                          ciphertext=b"0123456789", mac_tag=b"\x00" * 8)


def test_concealed_identity_profile_lengths():
    with pytest.raises(ValueError):
        ConcealedIdentity(mcc="001", mnc="01", scheme=SuciScheme.PROFILE_A,
                          ciphertext=b"x", ephemeral_public_key=b"\x00" * 31,
                          mac_tag=b"\x00" * 8)
    with pytest.raises(ValueError):
        ConcealedIdentity(mcc="001", mnc="01", scheme=SuciScheme.PROFILE_B,
                          ciphertext=b"x", ephemeral_public_key=b"\x00" * 33,
                          mac_tag=b"\x00" * 7)


def test_credential_sqn_monotone():
    cred = LongTermCredential(k=bytes(16), sqn=5)
    assert cred.advanced().sqn == 6
    assert cred.sqn == 5  # original untouched


def _context():
    return SecurityContext(ng_ksi=1, keys={"k_ausf": bytes(32)}, nea_id=2, nia_id=2)


def test_security_context_default_abba_is_zero():
    assert _context().abba == b"\x00\x00"

"""Known-answer vector file generation.

The file is line-oriented ``name = hex`` text.  It is checked into the
repository (tests/data/known_answers.txt) and regenerated by the CLI's
``gen-vectors`` command; regeneration must be byte-identical.
"""

from __future__ import annotations

from . import crypto
from .identity import LongTermCredential, SubscriberIdentity, SuciScheme

# Fixed inputs for every vector below.
HOME_SEED = bytes(range(1, 33))
EPH_RANDOMNESS = bytes(32)
TEST_IDENTITY = SubscriberIdentity(mcc="001", mnc="01", msin="0123456789")
AKA_K = bytes(16)
AKA_SQN = 0
AKA_RAND = bytes(16)
SERVING_NETWORK = "5G:test"
CHAIN_K_AUSF = bytes(range(32))
CHAIN_SUPI = "imsi-001010123456789"
CHAIN_ABBA = b"\x00\x00"
CHAIN_NEA = 2
CHAIN_NIA = 2


def generate_vectors() -> str:
    """Render the full known-answer vector file content."""
    lines = ["# fivegsim known-answer vectors (generated; do not edit by hand)"]

    def emit(name: str, value: bytes) -> None:
        lines.append(f"{name} = {value.hex()}")

    emit("home_seed", HOME_SEED)
    emit("ephemeral_randomness", EPH_RANDOMNESS)
    emit("msin", TEST_IDENTITY.msin.encode())

    for scheme, prefix in ((SuciScheme.PROFILE_A, "suci_profile_a"),
                           (SuciScheme.PROFILE_B, "suci_profile_b")):
        keypair = crypto.HomeNetworkKeyPair.from_seed(scheme, HOME_SEED)
        suci = crypto.conceal_supi(TEST_IDENTITY, keypair, scheme, EPH_RANDOMNESS)
        emit(f"{prefix}_home_public", keypair.public_bytes)
        emit(f"{prefix}_ephemeral_public", suci.ephemeral_public_key)
        emit(f"{prefix}_ciphertext", suci.ciphertext)
        emit(f"{prefix}_tag", suci.mac_tag)
        emit(f"{prefix}_wire", suci.to_bytes())

    cred = LongTermCredential(k=AKA_K, sqn=AKA_SQN)
    vector = crypto.compute_auth_vector(cred, SERVING_NETWORK, AKA_RAND)
    emit("aka_k", AKA_K)
    emit("aka_rand", AKA_RAND)
    emit("aka_serving_network", SERVING_NETWORK.encode())
    emit("aka_autn", vector.autn.to_bytes())
    emit("aka_xres", vector.xres)
    emit("aka_hxres", vector.hxres)
    emit("aka_k_ausf", vector.k_ausf)

    emit("res_hash_zero", crypto.res_hash(bytes(16), bytes(16)))

    # the three cuts the home network, the AMF and the gNB run, composed
    chain = crypto.derive_chain_from_seaf(
        crypto.derive_k_seaf(CHAIN_K_AUSF, SERVING_NETWORK),
        CHAIN_SUPI, CHAIN_ABBA, CHAIN_NEA, CHAIN_NIA,
    )
    chain.update(crypto.derive_as_keys(chain["k_gnb"], CHAIN_NEA, CHAIN_NIA))
    emit("chain_k_ausf", CHAIN_K_AUSF)
    for name in crypto.KEY_PARENT:
        emit(f"chain_{name}", chain[name])

    return "\n".join(lines) + "\n"

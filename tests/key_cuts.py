"""The whole key DAG below ``k_ausf``, composed from the three cuts the
parties run: the home network's (``derive_k_seaf``), the AMF's
(``derive_chain_from_seaf``) and the gNB's (``derive_as_keys``).  The
package has no function for the whole DAG, since no party holds it."""

from fivegsim import crypto


def composed_chain(k_ausf: bytes, serving_network_name: str, supi: str, abba: bytes,
                   nea_id: int, nia_id: int) -> dict[str, bytes]:
    """``k_ausf``, then every key below it in ``kdf_labels.json`` order."""
    k_seaf = crypto.derive_k_seaf(k_ausf, serving_network_name)
    chain = {"k_ausf": k_ausf,
             **crypto.derive_chain_from_seaf(k_seaf, supi, abba, nea_id, nia_id)}
    chain.update(crypto.derive_as_keys(chain["k_gnb"], nea_id, nia_id))
    return chain

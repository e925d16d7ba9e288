"""PairManifest from PairSample rows, for tests that write pairs out by hand,
and a long manifest built straight from its columns."""

import numpy as np

from biqa.pseudolabel import PairManifest


def manifest_of(pool, n_pairs, seed, ensemble, samples):
    """The rows in order, over their ids in first-seen order (x ids, then
    y ids)."""
    ids = list(dict.fromkeys([s.x_id for s in samples] + [s.y_id for s in samples]))
    x = np.array([ids.index(s.x_id) for s in samples], dtype=np.intp)
    y = np.array([ids.index(s.y_id) for s in samples], dtype=np.intp)
    p_r = np.array([s.p_r for s in samples], dtype=np.float64)
    return PairManifest(pool, n_pairs, seed, ensemble, ids, x, y, p_r)


def long_manifest(n_pairs, n_models=3, n_ids=400):
    """n_pairs distinct ordered pairs over n_ids ids, every label 0.5 but the
    last pair's, which is 1.0; built from columns, with no row objects."""
    assert n_pairs <= n_ids * (n_ids - 1)  # so no pair repeats and x != y
    ids = [f"i{k:04d}" for k in range(n_ids)]
    k = np.arange(n_pairs)
    x = k % n_ids
    y = (x + 1 + k // n_ids) % n_ids
    p_r = np.full(n_pairs, 0.5)
    p_r[-1] = 1.0
    ensemble = [{"trained_on": f"s{j}", "digest": f"d{j}"} for j in range(n_models)]
    return PairManifest("pool", n_pairs, 0, ensemble, ids, x, y, p_r)

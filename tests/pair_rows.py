"""PairManifest from PairSample rows, for tests that write pairs out by hand."""

import numpy as np

from biqa.pseudolabel import PairManifest


def manifest_of(pool, n_pairs, seed, ensemble, samples):
    """The rows in order, over their ids in first-seen order (x ids, then
    y ids); per_model columns when the rows have them."""
    ids = list(dict.fromkeys([s.x_id for s in samples] + [s.y_id for s in samples]))
    x = np.array([ids.index(s.x_id) for s in samples], dtype=np.intp)
    y = np.array([ids.index(s.y_id) for s in samples], dtype=np.intp)
    p_r = np.array([s.p_r for s in samples], dtype=np.float64)
    models = [s.per_model for s in samples]
    per_model = None if None in models or not models else np.array(models, dtype=np.float64)
    return PairManifest(pool, n_pairs, seed, ensemble, ids, x, y, p_r, per_model)

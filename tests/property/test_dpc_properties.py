"""Property-based tests for DPC filter and classifier invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.hyperparams import GriffinHyperParams
from repro.core.classification import PageClass
from repro.core.dpc import _FORGET_EPSILON, DynamicPageClassifier

NUM_GPUS = 4

count_rounds = st.lists(
    st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=8),       # page
            st.integers(min_value=0, max_value=255),     # raw count
            max_size=5,
        ),
        min_size=NUM_GPUS,
        max_size=NUM_GPUS,
    ),
    max_size=25,
)


def make_dpc():
    return DynamicPageClassifier(GriffinHyperParams.calibrated(), NUM_GPUS)


@given(count_rounds)
@settings(max_examples=60)
def test_filtered_counts_are_nonnegative_and_bounded(rounds):
    dpc = make_dpc()
    for r in rounds:
        dpc.update(r)
    for page in range(9):
        for c in dpc.filtered_counts(page):
            assert 0.0 <= c <= 255.0


@given(count_rounds)
@settings(max_examples=60)
def test_filtered_never_exceeds_running_max_raw(rounds):
    dpc = make_dpc()
    max_raw = {}
    for r in rounds:
        dpc.update(r)
        for g in range(NUM_GPUS):
            for page, raw in r[g].items():
                key = (page, g)
                max_raw[key] = max(max_raw.get(key, 0), raw)
    for (page, g), peak in max_raw.items():
        assert dpc.filtered_counts(page)[g] <= peak + 1e-9


@given(count_rounds, st.integers(min_value=0, max_value=8),
       st.integers(min_value=-1, max_value=NUM_GPUS - 1))
@settings(max_examples=60)
def test_classification_is_total(rounds, page, location):
    dpc = make_dpc()
    for r in rounds:
        dpc.update(r)
    assert dpc.classify(page, location) in PageClass


@given(count_rounds)
@settings(max_examples=60)
def test_candidates_are_gpu_to_gpu_with_positive_benefit(rounds):
    dpc = make_dpc()
    for r in rounds:
        dpc.update(r)
    candidates = dpc.select_candidates(lambda p: p % NUM_GPUS)
    for cand in candidates:
        assert 0 <= cand.src < NUM_GPUS
        assert 0 <= cand.dst < NUM_GPUS
        assert cand.src != cand.dst
        assert cand.benefit > 0


@given(count_rounds)
@settings(max_examples=60)
def test_candidates_sorted_descending(rounds):
    dpc = make_dpc()
    for r in rounds:
        dpc.update(r)
    benefits = [c.benefit for c in dpc.select_candidates(lambda p: p % NUM_GPUS)]
    assert benefits == sorted(benefits, reverse=True)


class PerRowUpdateDPC(DynamicPageClassifier):
    """The classifier with its original ``update``: rows allocated one
    page at a time, row max by ``max(axis=1)``, dead rows forgotten in a
    per-row loop.  Kept as the oracle for the batched epoch."""

    def _alloc_row(self, page: int) -> int:
        free = self._free
        if free:
            row = free.pop()
        else:
            row = self._used
            if row >= self._F.shape[0]:
                self._grow()
            self._used = row + 1
        self._F[row] = 0.0
        self._page_of[row] = page
        self._index[page] = row
        return row

    def update(self, counts_per_gpu):
        self.updates += 1
        alpha = self.hyper.alpha
        keep = 1.0 - alpha
        index = self._index
        touched = set(index)
        for counts in counts_per_gpu:
            touched.update(counts)
        for page in touched:
            if page not in index:
                self._alloc_row(page)
        used = self._used
        if not used:
            return
        R = self._R
        Rv = R[:used]
        Rv[:] = 0
        for g, counts in enumerate(counts_per_gpu):
            for page, count in counts.items():
                R[index[page], g] = count
        F = self._F
        Fv = F[:used]
        F2 = keep * Fv + alpha * Rv
        self._T[:used] = F2 - Fv
        Fv[:] = F2
        top = F2.max(axis=1)
        self._top[:used] = top
        page_of = self._page_of
        dead_rows = np.nonzero(
            (top <= _FORGET_EPSILON) & (page_of[:used] >= 0)
        )[0]
        if dead_rows.size:
            free = self._free
            for row in dead_rows.tolist():
                del index[int(page_of[row])]
                page_of[row] = -1
                free.append(row)
                F[row] = 0.0


def _burst(base):
    """One GPU reports 600 pages: the row arrays (256 rows to start)
    must grow twice within one update."""
    return [{p: 1 for p in range(base, base + 600)}] + [{}] * (NUM_GPUS - 1)


# Small raw counts, empty epochs and a high alpha make pages decay below
# the forget threshold within a few epochs, so rows are freed and reused.
epoch_streams = st.lists(
    st.one_of(
        st.lists(
            st.dictionaries(st.integers(min_value=0, max_value=40),
                            st.integers(min_value=1, max_value=6),
                            max_size=6),
            min_size=NUM_GPUS, max_size=NUM_GPUS,
        ),
        st.just([{}] * NUM_GPUS),
        st.integers(min_value=0, max_value=1200).map(_burst),
    ),
    max_size=40,
)


def _state(dpc):
    arrays = ("_page_of", "_F", "_T", "_R", "_top")
    return (
        list(dpc._index.items()), list(dpc._free), dpc._used,
        *((getattr(dpc, name).shape, getattr(dpc, name).tobytes())
          for name in arrays),
    )


@given(epoch_streams, st.sampled_from([0.03, 0.5, 0.9, 1.0]))
@settings(max_examples=100, deadline=None)
def test_update_matches_per_row_oracle(epochs, alpha):
    """The batched epoch leaves bit-identical state to the per-row one:
    index order, free list, row arrays (capacity included), after every
    update."""
    hyper = GriffinHyperParams.calibrated().with_overrides(alpha=alpha)
    dpc = DynamicPageClassifier(hyper, NUM_GPUS)
    oracle = PerRowUpdateDPC(hyper, NUM_GPUS)
    for counts in epochs:
        dpc.update(counts)
        oracle.update(counts)
        assert _state(dpc) == _state(oracle)

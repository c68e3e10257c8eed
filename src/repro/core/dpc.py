"""Dynamic Page Classification (paper Section III-C).

Raw per-GPU access counts collected from the Shader Engine tables are
smoothed by an exponentially weighted moving average implemented in the
IOMMU::

    C^{p,g}_n = (1 - alpha) * C^{p,g}_{n-1} + alpha * N^{p,g}

Each page is then placed into one of five classes:

* **Mostly Dedicated** — highest per-GPU count at least ``lambda_d`` times
  the second highest; migrate to the top GPU if not already there.
* **Shared** — highest count at most ``lambda_s`` times the second
  highest; migrate to the top GPU only if the page currently sits on a GPU
  with a very low share of the accesses (not worth moving otherwise).
* **Streaming** — per-GPU access rate stays below ``lambda_t`` per cycle;
  never migrated (no locality to exploit).
* **Owner-Shifting** — not classifiable as above, the current owner's
  filtered count is falling while another GPU's is rising; always migrated
  to the rising GPU.
* **Out-of-Interest** — everything else; never migrated.

Ordering note: we evaluate the streaming rate test before the dedicated /
shared ratio tests.  The paper lists the classes in a different order, but
without a floor the ratio tests would classify a page with counts (2, 0)
as Mostly Dedicated and migrate it on noise; a genuinely dedicated page
always clears the streaming floor, so the two orderings agree on every
page with meaningful traffic.

Implementation: the filter state lives in dense per-row numpy arrays
(``page -> row`` via ``_index``) so the per-epoch EWMA is one vectorized
expression over every tracked page instead of a Python loop.  Elementwise
float64 multiply/add round exactly like the scalar expressions they
replace, so the filter values — and every migration decision derived from
them — are bit-identical to the original per-page loop.  Scalar
consumers (``classify`` and friends) convert a row with ``.tolist()``
first, which is exact, and then run the original pure-Python logic.
"""

from __future__ import annotations

from itertools import filterfalse

import numpy as np

from repro.config.hyperparams import GriffinHyperParams
from repro.core.classification import MigrationCandidate, PageClass

_FORGET_EPSILON = 1e-3
_INITIAL_ROWS = 256


class DynamicPageClassifier:
    """The EWMA filter plus the five-class page classifier."""

    def __init__(self, hyper: GriffinHyperParams, num_gpus: int) -> None:
        self.hyper = hyper
        self.num_gpus = num_gpus
        # page -> row in the state arrays; rows are recycled through _free.
        self._index: dict[int, int] = {}
        self._free: list[int] = []
        self._used = 0
        self._F = np.zeros((_INITIAL_ROWS, num_gpus))          # EWMA counts
        self._T = np.zeros((_INITIAL_ROWS, num_gpus))          # per-epoch trend
        self._R = np.zeros((_INITIAL_ROWS, num_gpus), np.int64)  # last raw counts
        self._top = np.zeros(_INITIAL_ROWS)                    # max(F, axis=1)
        self._page_of = np.full(_INITIAL_ROWS, -1, np.int64)   # row -> page
        self.updates = 0
        # id-keyed for the same reason as AccessPath._kc: a PageClass key
        # would call the Python-level Enum.__hash__ per bump.
        self._cc: dict[int, int] = {id(c): 0 for c in PageClass}

    # ------------------------------------------------------------------
    # Row management
    # ------------------------------------------------------------------

    def _grow(self) -> None:
        cap = self._F.shape[0] * 2
        for name in ("_F", "_T", "_R", "_top", "_page_of"):
            old = getattr(self, name)
            shape = (cap,) + old.shape[1:]
            fill = -1 if name == "_page_of" else 0
            new = np.full(shape, fill, old.dtype)
            new[: old.shape[0]] = old
            setattr(self, name, new)

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------

    def update(self, counts_per_gpu: list[dict[int, int]]) -> None:
        """Fold one collection period of raw counts into the filter.

        ``counts_per_gpu[g]`` maps page -> raw count collected from GPU g
        this period.  Pages absent from every GPU's report decay toward
        zero and are forgotten once negligible.
        """
        if len(counts_per_gpu) != self.num_gpus:
            raise ValueError(
                f"expected counts for {self.num_gpus} GPUs, "
                f"got {len(counts_per_gpu)}"
            )
        self.updates += 1
        alpha = self.hyper.alpha
        keep = 1.0 - alpha

        # Allocate rows for unseen pages in the same order the scalar
        # version inserted them (set of known ∪ reported pages): dict
        # iteration order feeds downstream capped scans, so it is pinned.
        # Recycled rows come off the end of _free first, then fresh rows
        # from _used; both are already zero in _F (forgotten rows are
        # zeroed below, rows past _used were never written).
        index = self._index
        touched = set(index)
        for counts in counts_per_gpu:
            touched.update(counts)
        new_pages = list(filterfalse(index.__contains__, touched))
        if new_pages:
            free = self._free
            rows = [free.pop() for _ in range(min(len(new_pages), len(free)))]
            used = self._used
            self._used = end = used + len(new_pages) - len(rows)
            rows.extend(range(used, end))
            while end > self._F.shape[0]:
                self._grow()
            self._page_of[rows] = new_pages
            index.update(zip(new_pages, rows))
        used = self._used
        if not used:
            return
        R = self._R
        Rv = R[:used]
        Rv[:] = 0
        for g, counts in enumerate(counts_per_gpu):
            for page, count in counts.items():
                R[index[page], g] = count

        # One vectorized EWMA step over every tracked page.  Elementwise
        # float64 ops round identically to the scalar
        # ``keep * f + alpha * raw`` they replace.
        F = self._F
        Fv = F[:used]
        F2 = keep * Fv + alpha * Rv
        np.subtract(F2, Fv, out=self._T[:used])
        Fv[:] = F2
        # Row max as a running column-wise maximum: exact, and much
        # cheaper than a reduction along the short GPU axis.
        top = self._top[:used]
        np.copyto(top, F2[:, 0])
        for g in range(1, self.num_gpus):
            np.maximum(top, F2[:, g], out=top)

        # Forget pages whose filter state decayed to noise (max <= eps,
        # exactly the old per-GPU ``new > eps`` aliveness test).
        page_of = self._page_of
        dead_rows = np.nonzero(
            (top <= _FORGET_EPSILON) & (page_of[:used] >= 0)
        )[0]
        if dead_rows.size:
            for page in page_of[dead_rows].tolist():
                del index[page]
            page_of[dead_rows] = -1
            F[dead_rows] = 0.0
            self._free.extend(dead_rows.tolist())

    def filtered_counts(self, page: int) -> list[float]:
        """Current EWMA counts per GPU for ``page`` (zeros if unknown)."""
        row = self._index.get(page)
        if row is None:
            return [0.0] * self.num_gpus
        return self._F[row].tolist()

    def last_raw_counts(self, page: int) -> list[int]:
        """The most recent collection period's raw counts for ``page``."""
        row = self._index.get(page)
        if row is None:
            return [0] * self.num_gpus
        return self._R[row].tolist()

    def tracked_pages(self) -> int:
        return len(self._index)

    @property
    def class_counts(self) -> dict:
        """Classification outcomes by class (enum-keyed, enum order)."""
        cc = self._cc
        return {c: cc[id(c)] for c in PageClass}

    def __getstate__(self) -> dict:
        """Snapshot support: ``id()`` keys are process-local, so ``_cc``
        travels as a plain list in ``PageClass`` order."""
        state = self.__dict__.copy()
        state["_cc"] = [self._cc[id(c)] for c in PageClass]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cc = {
            id(c): count for c, count in zip(PageClass, state["_cc"])
        }

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def classify(self, page: int, location: int) -> PageClass:
        """Classify one page given its current resident GPU."""
        row = self._index.get(page)
        if row is None:
            return PageClass.OUT_OF_INTEREST
        filtered = self._F[row].tolist()
        # Top two values by a linear scan (same tie handling as a stable
        # descending sort: an equal later value lands in second place).
        top_count = filtered[0]
        second_count = 0.0
        for g in range(1, self.num_gpus):
            value = filtered[g]
            if value > top_count:
                second_count = top_count
                top_count = value
            elif value > second_count:
                second_count = value

        streaming_floor = self.hyper.lambda_t * self.hyper.t_ac
        if top_count < streaming_floor:
            return PageClass.STREAMING
        if top_count >= self.hyper.lambda_d * max(second_count, streaming_floor / self.hyper.lambda_d):
            return PageClass.MOSTLY_DEDICATED
        if second_count > 0 and top_count <= self.hyper.lambda_s * second_count:
            return PageClass.SHARED
        if self._is_owner_shifting(row, location):
            return PageClass.OWNER_SHIFTING
        return PageClass.OUT_OF_INTEREST

    def _is_owner_shifting(self, row: int, location: int) -> bool:
        if location < 0 or location >= self.num_gpus:
            return False
        trend = self._T[row].tolist()
        top_count = max(self._F[row].tolist())
        # A step from 0 to N moves the EWMA by alpha*N in one period, so
        # this threshold is scale-free in the access intensity.
        threshold = self.hyper.trend_fraction * self.hyper.alpha * top_count
        if threshold <= 0:
            return False
        owner_falling = trend[location] < -threshold
        challenger_rising = any(
            trend[g] > threshold
            for g in range(self.num_gpus)
            if g != location
        )
        return owner_falling and challenger_rising

    # ------------------------------------------------------------------
    # Candidate selection
    # ------------------------------------------------------------------

    def select_candidates(self, location_of) -> list[MigrationCandidate]:
        """Pick pages worth migrating, best locality gain first.

        Args:
            location_of: Callable page -> device id.  Only GPU-resident
                pages are eligible (CPU-resident pages are DFTM's job).

        Returns:
            Candidates sorted by descending expected benefit.
        """
        candidates: list[MigrationCandidate] = []
        num_gpus = self.num_gpus
        streaming_floor = self.hyper.lambda_t * self.hyper.t_ac
        cc = self._cc
        id_streaming = id(PageClass.STREAMING)
        F = self._F
        top = self._top[: self._used].tolist()
        for page, row in self._index.items():
            location = location_of(page)
            if location < 0 or location >= num_gpus:
                continue
            if top[row] < streaming_floor:
                # classify() would return STREAMING from its first test;
                # the cached row max lets the scan skip the call entirely.
                cc[id_streaming] += 1
                continue
            page_class = self.classify(page, location)
            cc[id(page_class)] += 1
            dst = self._destination(row, location, page_class)
            if dst is None or dst == location:
                continue
            frow = F[row]
            benefit = float(frow[dst]) - float(frow[location])
            if benefit <= 0:
                continue
            candidates.append(
                MigrationCandidate(page, location, dst, page_class, benefit)
            )
        candidates.sort(key=lambda c: (-c.benefit, c.page))
        return candidates

    def _destination(self, row: int, location: int, page_class: PageClass):
        filtered = self._F[row].tolist()
        if page_class == PageClass.MOSTLY_DEDICATED:
            return max(range(self.num_gpus), key=filtered.__getitem__)
        if page_class == PageClass.SHARED:
            total = sum(filtered)
            if total <= 0:
                return None
            if filtered[location] / total >= self.hyper.shared_min_share:
                return None  # already on a reasonably hot GPU; not worth it
            return max(range(self.num_gpus), key=filtered.__getitem__)
        if page_class == PageClass.OWNER_SHIFTING:
            trend = self._T[row].tolist()
            rising = [g for g in range(self.num_gpus) if g != location]
            return max(rising, key=trend.__getitem__)
        return None

"""Per-subject records (id, z, censoring_time, visit_times, outcomes) and panels.

``panel_of`` stacks records into the six columns ``build_panel`` takes;
``subjects_of`` splits a panel back into records.  Tests that build a panel
subject by subject, rebuild one (reversed, shifted or with a subject
dropped) or walk one subject by subject go through these two.
"""

from typing import NamedTuple

import numpy as np

from visitsim.domain import build_panel


class Record(NamedTuple):
    id: int
    z: int
    censoring_time: float
    visit_times: object
    outcomes: object


def columns_of(records) -> tuple[list, list, list, list, list, list]:
    """``build_panel``'s columns (ids, z, censoring, counts, t, y) for ``records``, in their order."""
    records = list(records)
    return ([r.id for r in records], [r.z for r in records], [r.censoring_time for r in records],
            [len(r.visit_times) for r in records], [v for r in records for v in r.visit_times],
            [v for r in records for v in r.outcomes])


def panel_of(records):
    return build_panel(*columns_of(records))


def subjects_of(panel) -> list[Record]:
    """The panel's subjects in panel order; their arrays are read-only views of the panel's."""
    split = panel.starts[1:]
    return [Record(int(sid), int(z), float(c), t, y)
            for sid, z, c, t, y in zip(panel.ids, panel.z, panel.censoring,
                                       np.split(panel.t, split), np.split(panel.y, split))]

"""A panel turned back into the ``Subject`` records that ``build_panel`` takes.

Tests that rebuild a panel (reversed, shifted or with a subject dropped) or
that walk it subject by subject start from these records.
"""

import numpy as np

from visitsim.domain import Subject


def subjects_of(panel) -> list[Subject]:
    """The panel's subjects in panel order; their arrays are read-only views of the panel's."""
    split = panel.starts[1:]
    return [Subject(int(sid), int(z), float(c), t, y)
            for sid, z, c, t, y in zip(panel.ids, panel.z, panel.censoring,
                                       np.split(panel.t, split), np.split(panel.y, split))]

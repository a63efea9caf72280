"""Copy elimination does not depend on the order it visits blocks in.

The driver applies each pattern, in priority order, to every block
until it stops matching, and sweeps until no pattern fires. Which block
a sweep visits first is not part of the specification: here every
iteration over the pass's block list is a fresh seeded shuffle, and the
result must still be the recorded one — the digests of
``tests/golden_copy_elim.json`` for every registered input, and the
hand-built tests' own expectations for the inputs of
``tests/test_copy_elim_patterns.py``, the only ones that reach
``_self_copy`` (Fig. 10d) and ``_duplicate_copy`` (Fig. 10c).

The pattern *priority* is part of the specification: drawing it at
random changes most of the recorded digests.

Tier-1 runs two seeds. A longer sweep over the registered inputs:
``PYTHONPATH=src python tests/test_copy_elim_order.py 50`` (seeds 0-49;
prints how many cases differ per seed and exits 1 if any did).
"""

import json
import random
import sys

import pytest

import test_copy_elim_golden as golden
from repro.compiler import copy_elim

SEEDS = (0, 1)


class _Shuffled(list):
    """A list whose every iteration is a fresh draw of its order."""

    def __init__(self, items, rng):
        super().__init__(items)
        self.rng = rng

    def __iter__(self):
        order = list(super().__iter__())
        self.rng.shuffle(order)
        return iter(order)


def shuffle_blocks(monkeypatch, seed):
    rng = random.Random(seed)

    class ShuffledUses(copy_elim._Uses):
        def __init__(self, fn):
            super().__init__(fn)
            self.blocks = _Shuffled(self.blocks, rng)

    monkeypatch.setattr(copy_elim, "_Uses", ShuffledUses)


def differing(recorded, got):
    return sorted(label for label in recorded if got[label] != recorded[label])


@pytest.mark.parametrize("seed", SEEDS)
def test_registered_inputs_match_the_recorded_digests(monkeypatch, seed):
    shuffle_blocks(monkeypatch, seed)
    recorded = json.loads(golden.GOLDEN.read_text())
    assert differing(recorded, golden.compute_digests()) == []


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cls, method", golden._hand_built())
def test_hand_built_inputs_keep_their_expectations(
    monkeypatch, seed, cls, method
):
    shuffle_blocks(monkeypatch, seed)
    getattr(cls(), method)()


if __name__ == "__main__":
    seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    recorded = json.loads(golden.GOLDEN.read_text())
    bad = 0
    for seed in range(seeds):
        with pytest.MonkeyPatch.context() as patch:
            shuffle_blocks(patch, seed)
            wrong = differing(recorded, golden.compute_digests())
        bad += bool(wrong)
        print(f"seed {seed}: {len(wrong)} of {len(recorded)} differ {wrong}")
    sys.exit(1 if bad else 0)

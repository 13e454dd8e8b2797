"""``search_tiling``'s two paper-pipeline options.

``padding`` tiles on a padded layout (Table 3) and keys the objective's
fingerprint, so memo stores and checkpoints never mix values across
layouts; ``seed_baselines`` plants the §5 selectors' tiles in the GA's
first population.  An unpadded search keeps the fingerprint it always
had, so existing memo files and checkpoints stay valid.
"""

import pytest

from repro.cache.config import CacheConfig
from repro.cme.analyzer import LocalityAnalyzer
from repro.ga.engine import GAConfig
from repro.ga.objective import TilingObjective
from repro.layout.memory import MemoryLayout, PaddingSpec
from repro.search.driver import load_checkpoint
from repro.search.tiling import baseline_seed_tiles, search_tiling
from tests.conftest import make_small_transpose

CACHE = CacheConfig(1024, 32, 1)
PAD = PaddingSpec(intra={"B": (2, 0)})
OTHER_PAD = PaddingSpec(inter={"B": 8}, intra={"A": (1, 0)})
KW = dict(strategy="random", budget=6, seed=0, n_samples=24)


def test_padding_tiles_on_the_padded_layout():
    nest = make_small_transpose(32)
    out = search_tiling(nest, CACHE, padding=PAD, **KW)
    padded = LocalityAnalyzer(
        nest, CACHE, layout=MemoryLayout(nest.arrays(), PAD),
        n_samples=24, seed=0,
    )
    assert out.before == padded.estimate()
    assert out.after == padded.estimate(tile_sizes=out.tile_sizes)
    unpadded = LocalityAnalyzer(nest, CACHE, n_samples=24, seed=0)
    assert out.before.replacement != unpadded.estimate().replacement


def test_padding_keys_the_memo_store(tmp_path):
    """A store warmed under one padding serves none of its values to a
    search under another padding (or none); a true repeat is warm."""
    memo = str(tmp_path / "pad.memo")
    nest = make_small_transpose(32)
    first = search_tiling(nest, CACHE, padding=PAD, memo_path=memo, **KW)
    assert first.backend["store_hits"] == 0
    other = search_tiling(nest, CACHE, padding=OTHER_PAD, memo_path=memo, **KW)
    assert other.backend["store_hits"] == 0
    unpadded = search_tiling(nest, CACHE, memo_path=memo, **KW)
    assert unpadded.backend["store_hits"] == 0
    warm = search_tiling(nest, CACHE, padding=PAD, memo_path=memo, **KW)
    assert warm.backend["new_solves"] == 0


@pytest.mark.parametrize("resume_padding", [OTHER_PAD, None],
                         ids=["other-padding", "unpadded"])
def test_checkpoint_under_one_padding_is_refused_under_another(
    tmp_path, resume_padding
):
    ck = str(tmp_path / "pad.ck")
    nest = make_small_transpose(32)
    search_tiling(nest, CACHE, padding=PAD, checkpoint_path=ck, **KW)
    with pytest.raises(ValueError, match="captured against"):
        search_tiling(nest, CACHE, padding=resume_padding, resume=ck, **KW)


def test_unpadded_fingerprint_is_unchanged(tmp_path):
    """The tuple an unpadded search wrote before padding existed."""
    ck = str(tmp_path / "fp.ck")
    search_tiling(make_small_transpose(32), CACHE, checkpoint_path=ck, **KW)
    assert load_checkpoint(ck)["fingerprint"] == (
        "t2d32",
        "dcc8bc52111dda2e5c3d1c5e9f64561fb4916eeba66550edac53adfae8c93286",
        "CacheConfig(1KB, 32B lines, DM)", 24, 0,
        (("abs_search_budget", 4096), ("enum_limit", 16384),
         ("line_candidate_limit", 512), ("partial_limit", 65536)),
    )


def test_seed_baselines_fill_the_first_population_in_order(monkeypatch):
    waves = []
    evaluate_batch = TilingObjective.evaluate_batch

    def spy(self, batch):
        waves.append(list(batch))
        return evaluate_batch(self, batch)

    monkeypatch.setattr(TilingObjective, "evaluate_batch", spy)
    nest = make_small_transpose(48)
    ga = GAConfig(population_size=8, min_generations=1, max_generations=1)
    search_tiling(nest, CACHE, ga_config=ga, n_samples=24, seed_baselines=True)
    seeds = baseline_seed_tiles(nest, CACHE)
    assert len(seeds) > 1
    assert waves[0][:len(seeds)] == seeds


def test_seed_baselines_need_the_ga():
    with pytest.raises(ValueError, match="seed_baselines"):
        search_tiling(
            make_small_transpose(32), CACHE, strategy="hillclimb", budget=4,
            seed_baselines=True,
        )

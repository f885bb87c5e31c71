import dataclasses
import gc
import tracemalloc
import weakref
from collections import Counter
from itertools import combinations

import pytest

from hyperring.core import make_zn_multiplier_ring
from hyperring.corpus import (
    CorpusConfig,
    corpus_rings,
    DEFAULT_CONFIG,
    fixture_even_multipliers,
    fixture_full_cell,
    fixture_inclusion_only,
    fixture_weak_identity,
    generate_corpus,
    iter_corpus,
    iter_suite_by_class,
    large_product,
)
from hyperring import verifier
from hyperring.verifier import (
    KIND_PRODUCT,
    KIND_RING_ALPHA,
    KIND_RING_ALPHA_IDEAL,
    KIND_RING_IDEAL,
    iter_suite,
)


class TestFixtures:
    def test_weak_identity_ring(self):
        ring = fixture_weak_identity()
        assert ring.props.identity == 1
        assert ring.props.identity_flavor == "weak"

    def test_inclusion_only_ring(self):
        ring = fixture_inclusion_only()
        assert not ring.props.strongly_distributive
        assert ring.props.commutative

    def test_full_cell_ring(self):
        ring = fixture_full_cell()
        assert not ring.props.zero_absorbing
        assert ring.props.strongly_distributive

    def test_even_multiplier_ring(self):
        ring = fixture_even_multipliers()
        assert ring.order == 8
        assert ring.props.zero_absorbing

    def test_large_product(self):
        product = large_product()
        assert product.ring.order == 1225
        assert product.ring.props.commutative
        assert product.ring.props.zero_absorbing
        assert product.ring.props.identity_flavor == "weak"


class TestGeneration:
    def test_singleton_config_yields_one_ring(self):
        config = CorpusConfig(
            modulus_min=5,
            modulus_max=5,
            multiplier_sets=((2,),),
            include_fixtures=False,
            include_homs=False,
            include_products=False,
            include_large_product=False,
        )
        rings = corpus_rings(config)
        assert [r.name for r in rings] == ["Z5[2]"]

    def test_r6_contributes_twelve_triples(self):
        corpus = generate_corpus(DEFAULT_CONFIG)
        triples = [
            inst
            for inst in corpus
            if inst.kind == KIND_RING_ALPHA_IDEAL and inst.ring.name == "Z6[2]"
        ]
        assert len(triples) == 12  # 4 endomorphisms x 3 proper hyperideals

    def test_uids_unique_and_stable(self):
        corpus = generate_corpus(DEFAULT_CONFIG)
        uids = [inst.uid for inst in corpus]
        assert len(uids) == len(set(uids))
        again = generate_corpus(DEFAULT_CONFIG)
        assert [i.uid for i in again] == uids

    def test_tables_deduplicated(self):
        config = CorpusConfig(
            modulus_min=2,
            modulus_max=4,
            include_fixtures=False,
            include_homs=False,
            include_products=False,
            include_large_product=False,
        )
        rings = corpus_rings(config)
        tables = [(r.order, r.hyp) for r in rings]
        assert len(tables) == len(set(tables))

    def test_kind_mix_present(self):
        corpus = generate_corpus(DEFAULT_CONFIG)
        kinds = Counter(inst.kind for inst in corpus)
        assert set(kinds) == {
            "ring_alpha_ideal", "ring_alpha", "ring_ideal", "hom", "product",
        }
        assert kinds[KIND_PRODUCT] >= 10

    def test_large_product_instances_present(self):
        corpus = generate_corpus(DEFAULT_CONFIG)
        big = [i for i in corpus if i.kind == KIND_PRODUCT and i.ring.order == 1225]
        assert len(big) == 3
        box = next(
            i for i in big if i.left_ideal.proper and i.right_ideal.proper
        )
        assert len(box.ideal.elements) == 35


def _table_keyed_sweep(config):
    """The swept ring names under the old key: one ring per (n, table)."""
    seen, names = set(), []
    for n in range(config.modulus_min, config.modulus_max + 1):
        if config.multiplier_sets is not None:
            families = [tuple(sorted({m % n for m in f})) for f in config.multiplier_sets]
        else:
            families = [
                subset
                for size in range(1, min(config.max_multipliers, n) + 1)
                for subset in combinations(range(n), size)
            ]
        for subset in filter(None, families):
            ring = make_zn_multiplier_ring(n, subset)
            if (n, ring.hyp) not in seen:
                seen.add((n, ring.hyp))
                names.append(ring.name)
    return names


class TestStreaming:
    def test_iter_corpus_yields_the_generated_corpus(self):
        streamed = iter_corpus(DEFAULT_CONFIG)
        assert not isinstance(streamed, (list, tuple))
        assert [i.uid for i in streamed] == [i.uid for i in generate_corpus(DEFAULT_CONFIG)]

    @pytest.mark.parametrize(
        "config",
        [
            DEFAULT_CONFIG,
            # 13 = 1 mod 2, 3, 4, 6 and 12, and {1, 25} = {1} mod 2, 3, 4, 6, 8, 12 and 24.
            CorpusConfig(modulus_max=26, multiplier_sets=((1,), (13,), (1, 25))),
        ],
        ids=["default", "colliding"],
    )
    def test_multiplier_set_key_keeps_the_table_key_rings(self, config):
        config = dataclasses.replace(config, include_fixtures=False)
        expected = _table_keyed_sweep(config)
        assert [r.name for r in corpus_rings(config)] == expected
        if config.multiplier_sets is not None:
            moduli = config.modulus_max - config.modulus_min + 1
            assert len(expected) < len(config.multiplier_sets) * moduli

    def test_streamed_verify_holds_one_swept_ring_at_a_time(self):
        config = CorpusConfig(modulus_min=2, modulus_max=7)
        named = set(config.hom_ring_names).union(*config.product_pair_names)
        fixtures = {fixture_weak_identity(), fixture_inclusion_only(),
                    fixture_full_cell(), fixture_even_multipliers()}
        swept = []

        def watched(instances):
            for inst in instances:
                ring = inst.ring
                if (inst.kind in (KIND_RING_ALPHA, KIND_RING_IDEAL, KIND_RING_ALPHA_IDEAL)
                        and ring not in fixtures and ring.name not in named
                        and not (swept and swept[-1]() is ring)):
                    swept.append(weakref.ref(ring))
                yield inst

        verdicts = 0
        for verdicts, _record in enumerate(iter_suite(watched(iter_corpus(config))), 1):
            if verdicts % 300 == 0:
                gc.collect()
                assert sum(ref() is not None for ref in swept) <= 1, verdicts
        gc.collect()
        assert [ref for ref in swept if ref() is not None] == []
        assert len(swept) > 100 and verdicts > 10_000

    def test_streamed_verify_ends_with_empty_free_lists(self):
        # Freed memo rows wait in CPython's free lists until a full
        # collection empties them; the stream runs one after its last swept
        # ring, and with the hom and product sections off it names no ring
        # to keep, so a further collection frees little (1.19 MB without
        # the collection, 0.30 MB with the named rings kept).
        config = CorpusConfig(modulus_max=8, include_fixtures=False, include_homs=False,
                              include_products=False, include_large_product=False)
        tracemalloc.start()
        try:
            verdicts = sum(1 for _record in iter_suite(iter_corpus(config)))
            left = tracemalloc.get_traced_memory()[0]
            gc.collect()
            freed = left - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert verdicts > 10_000
        assert freed < 100_000

    def test_streamed_verify_frees_swept_rings_by_reference_count(self):
        # Memo keys hold their ring, so a ring with a filled memo is a
        # reference cycle; with the cyclic collector off, only an emptied
        # memo lets a swept ring go.
        config = CorpusConfig(modulus_min=2, modulus_max=7)
        named = set(config.hom_ring_names).union(*config.product_pair_names)
        fixtures = {fixture_weak_identity(), fixture_inclusion_only(),
                    fixture_full_cell(), fixture_even_multipliers()}
        swept = []

        def watched(instances):
            for inst in instances:
                ring = inst.ring
                if (inst.kind in (KIND_RING_ALPHA, KIND_RING_IDEAL, KIND_RING_ALPHA_IDEAL)
                        and ring not in fixtures and ring.name not in named
                        and not (swept and swept[-1]() is ring)):
                    swept.append(weakref.ref(ring))
                yield inst

        enabled = gc.isenabled()
        gc.disable()
        try:
            alive = [sum(ref() is not None for ref in swept)
                     for verdicts, _record in enumerate(iter_suite(watched(iter_corpus(config))), 1)
                     if verdicts % 300 == 0]
            assert max(alive) <= 1
            assert [ref for ref in swept if ref() is not None] == []
        finally:
            if enabled:
                gc.enable()
        assert len(swept) > 100 and len(alive) > 30

    def test_verify_by_class_frees_swept_rings_by_reference_count(self):
        # The same stream as above, through the records of the first ring of
        # each class kept for its isomorphic rings: the kept rows hold no ring.
        config = CorpusConfig(modulus_min=2, modulus_max=7)
        named = set(config.hom_ring_names).union(*config.product_pair_names)
        fixtures = {fixture_weak_identity(), fixture_inclusion_only(),
                    fixture_full_cell(), fixture_even_multipliers()}
        swept = []

        def watched(instances):
            for inst in instances:
                ring = inst.ring
                if (inst.kind in (KIND_RING_ALPHA, KIND_RING_IDEAL, KIND_RING_ALPHA_IDEAL)
                        and ring not in fixtures and ring.name not in named
                        and not (swept and swept[-1]() is ring)):
                    swept.append(weakref.ref(ring))
                yield inst

        enabled = gc.isenabled()
        gc.disable()
        try:
            alive = [sum(ref() is not None for ref in swept)
                     for verdicts, _record in enumerate(iter_suite_by_class(watched(iter_corpus(config))), 1)
                     if verdicts % 300 == 0]
            assert max(alive) <= 1
            assert [ref for ref in swept if ref() is not None] == []
        finally:
            if enabled:
                gc.enable()
        assert len(swept) > 100 and len(alive) > 30


def _rotated(config):
    """The corpus of ``config`` with the run of instances of the i-th ring
    rotated by i places, so that isomorphic rings list different components
    at the same place."""
    ring, run, count = None, [], 0
    for inst in iter_corpus(config):
        if inst.ring is not ring and run:
            count += 1
            yield from run[count % len(run):] + run[:count % len(run)]
            run = []
        ring = inst.ring
        run.append(inst)
    yield from run


class TestByClass:
    """Each class of isomorphic residue rings decided once, against every
    ring decided on its own."""

    SMALL = CorpusConfig(modulus_max=9)

    @pytest.mark.parametrize("selection", [None, ("T04", "T11", "T21")], ids=["all", "three"])
    @pytest.mark.parametrize("corpus", [iter_corpus, _rotated], ids=["swept", "rotated"])
    def test_records_equal_the_direct_suite(self, corpus, selection, monkeypatch):
        expected = list(iter_suite(corpus(self.SMALL), selection))
        checked = []
        real = verifier.check

        def check(inst, theorem):
            checked.append((inst.uid, theorem.tid))
            return real(inst, theorem)

        monkeypatch.setattr(verifier, "check", check)
        assert list(iter_suite_by_class(corpus(self.SMALL), selection)) == expected
        assert len(checked) < len(expected)
        # every fails witness is found, and re-verified, on its own instance
        fails = {(r.instance, r.theorem) for r in expected if r.status == "fails"}
        assert fails and fails <= set(checked)

    def test_unknown_theorem_id_raises_before_any_record(self):
        with pytest.raises(ValueError):
            next(iter_suite_by_class(iter_corpus(self.SMALL), ["T99"]))

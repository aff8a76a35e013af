import json
from collections import Counter

import numpy as np
import pytest

from conftest import make_corpus
from ragrade.corpus import Label, Response, Scheme, collapse_label
from ragrade.pairs import (
    Pair,
    Scope,
    Strategy,
    Triplet,
    balance,
    build_training_sets,
    build_triplets,
    enumerate_pairs,
    label_pairs,
    write_pairs_jsonl,
    write_triplets_jsonl,
)


def responses_for(n, qid="q", labels=None):
    labels = labels or [Label.CORRECT] * n
    return [
        Response(id=f"{qid}r{i:02d}", question_id=qid, text=f"text {qid} {i}", label=labels[i])
        for i in range(n)
    ]


def brute_force_pairs(responses):
    """Independent enumeration: every unordered distinct id pair."""
    seen = set()
    for a in responses:
        for b in responses:
            if a.id != b.id:
                seen.add(tuple(sorted((a.id, b.id))))
    return seen


class TestEnumeratePairs:
    def test_four_responses_six_pairs(self):
        assert len(enumerate_pairs(responses_for(4))) == 6

    def test_single_response_no_pairs(self):
        assert enumerate_pairs(responses_for(1)) == []

    def test_ten_responses_match_brute_force(self):
        responses = responses_for(10)
        pairs = enumerate_pairs(responses)
        assert len(pairs) == 45
        as_tuples = {(p.a_id, p.b_id) for p in pairs}
        assert len(as_tuples) == 45  # no duplicates under canonical ordering
        assert as_tuples == brute_force_pairs(responses)
        assert all(p.a_id < p.b_id for p in pairs)

    def test_mixed_questions_rejected(self):
        mixed = responses_for(2, qid="q1") + responses_for(2, qid="q2")
        with pytest.raises(ValueError, match="multiple questions"):
            enumerate_pairs(mixed)

    def test_canonical_ordering_on_construction(self):
        p = Pair(a_id="z", b_id="a", question_id="q")
        assert (p.a_id, p.b_id) == ("a", "z")

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            Pair(a_id="a", b_id="a", question_id="q")


def mk(label):
    return Response(id=f"r-{label.value}", question_id="q", text="t", label=label)


def label_of_two(a, b, scheme, strategy):
    """label_pairs on the two-answer list [a, b]: the label of its one pair."""
    [pair] = label_pairs(enumerate_pairs([a, b]), {a.id: a, b.id: b}, scheme, strategy)
    return pair.label


class TestPairLabel:
    def test_both_correct_any_strategy(self):
        a = mk(Label.CORRECT)
        b = Response(id="x", question_id="q", text="t", label=Label.CORRECT)
        for scheme in Scheme:
            for strategy in Strategy:
                assert label_of_two(a, b, scheme, strategy) == 1

    def test_both_contradictory_three_way(self):
        a = mk(Label.CONTRADICTORY)
        b = Response(id="x", question_id="q", text="t", label=Label.CONTRADICTORY)
        assert label_of_two(a, b, Scheme.THREE_WAY, Strategy.STRICT) == 0
        assert label_of_two(a, b, Scheme.THREE_WAY, Strategy.GENERAL) == 1

    def test_cross_category_always_zero(self):
        a = mk(Label.CORRECT)
        b = mk(Label.IRRELEVANT)
        for scheme in Scheme:
            for strategy in Strategy:
                assert label_of_two(a, b, scheme, strategy) == 0

    def test_both_incorrect_after_collapse(self):
        # irrelevant + non-domain collapse together in 3-way and 2-way
        a = mk(Label.IRRELEVANT)
        b = mk(Label.NON_DOMAIN)
        for scheme in (Scheme.THREE_WAY, Scheme.TWO_WAY):
            assert label_of_two(a, b, scheme, Strategy.STRICT) == 1
            assert label_of_two(a, b, scheme, Strategy.GENERAL) == 1
        assert label_of_two(a, b, Scheme.FIVE_WAY, Strategy.GENERAL) == 0

    def test_five_way_strict_privileges_only_correct(self):
        # no "incorrect" category exists before collapse
        a = mk(Label.IRRELEVANT)
        b = Response(id="x", question_id="q", text="t", label=Label.IRRELEVANT)
        assert label_of_two(a, b, Scheme.FIVE_WAY, Strategy.STRICT) == 0
        assert label_of_two(a, b, Scheme.FIVE_WAY, Strategy.GENERAL) == 1

    def test_strict_ones_subset_of_general_ones(self):
        rng = np.random.default_rng(7)
        all_labels = list(Label)
        responses = [
            Response(id=f"r{i}", question_id="q", text=f"t{i}", label=all_labels[rng.integers(5)])
            for i in range(12)
        ]
        by_id = {r.id: r for r in responses}
        pairs = enumerate_pairs(responses)
        for scheme in (Scheme.TWO_WAY, Scheme.THREE_WAY):
            strict = {
                (p.a_id, p.b_id)
                for p in label_pairs(pairs, by_id, scheme, Strategy.STRICT)
                if p.label == 1
            }
            general = {
                (p.a_id, p.b_id)
                for p in label_pairs(pairs, by_id, scheme, Strategy.GENERAL)
                if p.label == 1
            }
            assert strict <= general

    def test_general_is_same_category_indicator(self):
        rng = np.random.default_rng(11)
        all_labels = list(Label)
        responses = [
            Response(id=f"r{i}", question_id="q", text=f"t{i}", label=all_labels[rng.integers(5)])
            for i in range(10)
        ]
        by_id = {r.id: r for r in responses}
        for scheme in Scheme:
            for p in label_pairs(enumerate_pairs(responses), by_id, scheme, Strategy.GENERAL):
                same = collapse_label(by_id[p.a_id].label, scheme) == collapse_label(
                    by_id[p.b_id].label, scheme
                )
                assert p.label == (1 if same else 0)


def labeled(n_pos, n_neg):
    pairs = []
    for i in range(n_pos + n_neg):
        pairs.append(
            Pair(a_id=f"a{i:03d}", b_id=f"b{i:03d}", question_id="q", label=1 if i < n_pos else 0)
        )
    return pairs


class TestBalance:
    def test_downsamples_negatives(self):
        out = balance(labeled(3, 10), seed=1)
        assert len(out) == 6
        assert sum(p.label for p in out) == 3

    def test_no_positives_empty(self):
        assert balance(labeled(0, 10), seed=1) == []

    def test_deterministic_under_seed(self):
        pairs = labeled(100, 400)
        first = balance(pairs, seed=42)
        second = balance(pairs, seed=42)
        assert first == second
        assert len(first) == 200

    def test_all_positives_retained(self):
        pairs = labeled(5, 50)
        out = balance(pairs, seed=3)
        assert {p.a_id for p in out if p.label == 1} == {f"a{i:03d}" for i in range(5)}

    def test_scarce_negatives_all_kept(self):
        out = balance(labeled(10, 4), seed=0)
        assert sum(1 - p.label for p in out) == 4
        assert sum(p.label for p in out) == 10


def brute_force_triplets(responses, scheme, seed):
    """Independent re-statement of the cycling rule, list-based."""
    rng = np.random.default_rng(seed)
    cat = {r.id: collapse_label(r.label, scheme) for r in responses}
    out = []
    for anchor in responses:
        peers = [r for r in responses if r.id != anchor.id and cat[r.id] == cat[anchor.id]]
        others = [r for r in responses if cat[r.id] != cat[anchor.id]]
        if not peers or not others:
            continue
        peers = [peers[i] for i in rng.permutation(len(peers))]
        others = [others[i] for i in rng.permutation(len(others))]
        for i in range(min(max(1, len(peers) // 2), len(peers) * len(others))):
            out.append(
                (anchor.id, peers[i % len(peers)].id, others[i % len(others)].id, anchor.question_id)
            )
    return out


class TestTriplets:
    def test_two_correct_one_incorrect(self):
        responses = responses_for(3, labels=[Label.CORRECT, Label.CORRECT, Label.IRRELEVANT])
        triplets = build_triplets(responses, Scheme.TWO_WAY, seed=0)
        assert len(triplets) == 2
        anchors = {t.anchor_id for t in triplets}
        assert anchors == {"qr00", "qr01"}
        for t in triplets:
            assert t.negative_id == "qr02"

    def test_mixed_questions_rejected(self):
        labels = [Label.CORRECT, Label.IRRELEVANT]
        mixed = responses_for(2, qid="q1", labels=labels) + responses_for(2, qid="q2", labels=labels)
        with pytest.raises(ValueError, match="multiple questions"):
            build_triplets(mixed, Scheme.TWO_WAY, seed=0)

    def test_single_category_no_triplets(self):
        responses = responses_for(5)
        assert build_triplets(responses, Scheme.TWO_WAY, seed=0) == []

    def test_matches_brute_force_enumerator(self):
        rng = np.random.default_rng(5)
        all_labels = list(Label)
        for trial in range(20):
            n = int(rng.integers(2, 12))
            responses = [
                Response(
                    id=f"r{i}", question_id="q", text=f"t{i}", label=all_labels[rng.integers(5)]
                )
                for i in range(n)
            ]
            for scheme in Scheme:
                got = build_triplets(responses, scheme, seed=trial)
                expected = brute_force_triplets(responses, scheme, seed=trial)
                assert [
                    (t.anchor_id, t.positive_id, t.negative_id, t.question_id) for t in got
                ] == expected

    def test_three_correct_two_incorrect_count(self):
        labels = [Label.CORRECT] * 3 + [Label.CONTRADICTORY] * 2
        responses = responses_for(5, labels=labels)
        triplets = build_triplets(responses, Scheme.TWO_WAY, seed=9)
        assert len(triplets) == len(brute_force_triplets(responses, Scheme.TWO_WAY, seed=9)) == 5

    def test_structural_invariants(self):
        rng = np.random.default_rng(13)
        all_labels = list(Label)
        responses = [
            Response(id=f"r{i}", question_id="q", text=f"t{i}", label=all_labels[rng.integers(5)])
            for i in range(15)
        ]
        by_id = {r.id: r for r in responses}
        for scheme in Scheme:
            triplets = build_triplets(responses, scheme, seed=2)
            assert len(set(triplets)) == len(triplets)  # no duplicates
            for t in triplets:
                anchor_cat = collapse_label(by_id[t.anchor_id].label, scheme)
                assert collapse_label(by_id[t.positive_id].label, scheme) == anchor_cat
                assert collapse_label(by_id[t.negative_id].label, scheme) != anchor_cat
                assert len({t.anchor_id, t.positive_id, t.negative_id}) == 3

    def test_per_anchor_count_at_scientsbank_scale(self):
        """135 questions of 36 answers, labels in SciEntsBank's train mix:
        each anchor with a peer and a negative gets min(max(1, peers // 2),
        peers * others) triplets, and no triplet repeats."""
        rng = np.random.default_rng(11)
        labels = list(Label)
        for q in range(135):
            drawn = rng.choice(len(labels), size=36, p=[0.40, 0.27, 0.11, 0.21, 0.01])
            responses = responses_for(36, qid=f"q{q:03d}", labels=[labels[i] for i in drawn])
            for scheme in Scheme:
                triplets = build_triplets(responses, scheme, seed=q)
                assert len(set(triplets)) == len(triplets)
                per_anchor = Counter(t.anchor_id for t in triplets)
                category = Counter(collapse_label(r.label, scheme) for r in responses)
                for r in responses:
                    peers = category[collapse_label(r.label, scheme)] - 1
                    others = len(responses) - 1 - peers
                    expected = min(max(1, peers // 2), peers * others) if peers and others else 0
                    assert per_anchor[r.id] == expected

    def test_deterministic_under_seed(self):
        labels = [Label.CORRECT] * 6 + [Label.IRRELEVANT] * 4
        responses = responses_for(10, labels=labels)
        assert build_triplets(responses, Scheme.TWO_WAY, seed=4) == build_triplets(
            responses, Scheme.TWO_WAY, seed=4
        )


TWO_Q = make_corpus(
    {"q1": "Q1?", "q2": "Q2?"},
    [
        ("a1", "q1", "train", Label.CORRECT),
        ("a2", "q1", "train", Label.CORRECT),
        ("a3", "q1", "train", Label.IRRELEVANT),
        ("b1", "q2", "train", Label.CORRECT),
        ("b2", "q2", "train", Label.CONTRADICTORY),
        ("b3", "q2", "train", Label.CONTRADICTORY),
    ],
)


class TestBuildTrainingSets:
    def test_global_is_concatenation(self):
        sets = build_training_sets(TWO_Q, Scheme.THREE_WAY, Strategy.GENERAL, Scope.GLOBAL, seed=0)
        merged = sets.merged_pairs()
        assert len(merged) == sum(len(v) for v in sets.pair_sets.values())
        assert {p.question_id for p in merged} == {"q1", "q2"}
        assert all(
            {p.a_id, p.b_id} <= {"a1", "a2", "a3"} or {p.a_id, p.b_id} <= {"b1", "b2", "b3"}
            for p in merged
        )

    def test_single_question_scope_equivalence(self):
        one_q = make_corpus(
            {"q": "Q?"},
            [
                ("a", "q", "train", Label.CORRECT),
                ("b", "q", "train", Label.CORRECT),
                ("c", "q", "train", Label.IRRELEVANT),
            ],
        )
        per_q = build_training_sets(one_q, Scheme.TWO_WAY, Strategy.GENERAL, Scope.QUESTION, seed=5)
        global_ = build_training_sets(one_q, Scheme.TWO_WAY, Strategy.GENERAL, Scope.GLOBAL, seed=5)
        assert per_q.pair_sets["q"] == global_.merged_pairs()

    def test_hand_enumerated_fixture(self):
        # q1 under 2-way general: pairs (a1,a2)=1, (a1,a3)=0, (a2,a3)=0;
        # balance keeps the one positive and samples one negative.
        sets = build_training_sets(TWO_Q, Scheme.TWO_WAY, Strategy.GENERAL, Scope.QUESTION, seed=0)
        q1 = sets.pair_sets["q1"]
        assert len(q1) == 2
        assert sorted(p.label for p in q1) == [0, 1]
        positive = next(p for p in q1 if p.label == 1)
        assert (positive.a_id, positive.b_id) == ("a1", "a2")
        # q2: (b2,b3)=1 positive, (b1,b2)=0, (b1,b3)=0
        q2 = sets.pair_sets["q2"]
        assert len(q2) == 2
        positive = next(p for p in q2 if p.label == 1)
        assert (positive.a_id, positive.b_id) == ("b2", "b3")

    def test_no_pair_crosses_questions(self):
        sets = build_training_sets(TWO_Q, Scheme.THREE_WAY, Strategy.STRICT, Scope.GLOBAL, seed=1)
        for p in sets.merged_pairs():
            assert p.a_id[0] == p.b_id[0]

    def test_balanced_whenever_negatives_suffice(self):
        sets = build_training_sets(TWO_Q, Scheme.TWO_WAY, Strategy.GENERAL, Scope.QUESTION, seed=3)
        for pairs in sets.pair_sets.values():
            ones = sum(p.label for p in pairs)
            zeros = sum(1 - p.label for p in pairs)
            assert ones == zeros

    def test_manifest_counts(self):
        sets = build_training_sets(TWO_Q, Scheme.TWO_WAY, Strategy.GENERAL, Scope.QUESTION, seed=0)
        manifest = sets.manifest()
        assert manifest["questions"] == 2
        assert manifest["pairs"] == 4
        assert manifest["pairs_positive"] == 2
        assert manifest["scheme"] == "2way"
        assert manifest["seed"] == 0


def read_pairs_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [
            Pair(a_id=obj["a"], b_id=obj["b"], question_id=obj["qid"], label=obj["label"])
            for obj in map(json.loads, filter(str.strip, fh))
        ]


def read_triplets_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [
            Triplet(
                anchor_id=obj["anchor"],
                positive_id=obj["pos"],
                negative_id=obj["neg"],
                question_id=obj["qid"],
            )
            for obj in map(json.loads, filter(str.strip, fh))
        ]


class TestSerialization:
    def test_pairs_round_trip(self, tmp_path):
        sets = build_training_sets(TWO_Q, Scheme.TWO_WAY, Strategy.GENERAL, Scope.GLOBAL, seed=0)
        path = tmp_path / "pairs.jsonl"
        write_pairs_jsonl(sets.merged_pairs(), path)
        assert read_pairs_jsonl(path) == sets.merged_pairs()

    def test_triplets_round_trip(self, tmp_path):
        labels = [Label.CORRECT] * 3 + [Label.CONTRADICTORY] * 2
        triplets = build_triplets(responses_for(5, labels=labels), Scheme.TWO_WAY, seed=0)
        path = tmp_path / "triplets.jsonl"
        write_triplets_jsonl(triplets, path)
        assert read_triplets_jsonl(path) == triplets

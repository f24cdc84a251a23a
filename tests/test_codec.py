import hashlib
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from check_reference import (filtered_least_period_words, forbidden_shape_count_bound,
                             min_period, primitive_and_shaped, restrict, verify_injective)
from encode_reference import bounded_stretch_points, dict_render_scales, long_tail_points
from layout_reference import ROLE_SINGULAR_FILL, record_layouts, roles
from shiftembed import blocks, codec, systems
from shiftembed.codec import (Codebook, PeriodicCode, RankedCodebook, SymbolStream,
                              build_first_codebook, build_conditional_codebook,
                              build_periodic_code)
from shiftembed.errors import (CapacityError, EnumerationBudgetError,
                               MalformedStreamError, ScheduleError, ShiftEmbedError,
                               SpecParseError, WindowError)
from shiftembed.markers import return_partition
from shiftembed.pipeline import build_pipeline, sample_points, verify_pipeline
from shiftembed.systems import (Odometer, OdometerPoint, Point, Sft, cell_label,
                                dyadic_odometer, enumerate_periodic, full_shift,
                                golden_mean, itinerary, least_period_words, orbit_system)
from shiftembed.words import (code_length_needed, kary_alphabet, kary_index, kary_word,
                              periodic_window)


def itinerary_keys(system, m, n):
    """Reference: every realized itinerary word of the radius-m partition
    over n steps, listed."""
    if not isinstance(system, Odometer):
        out = []
        for w in system.words(n + 2 * m):
            out.append(tuple(w[i:i + 2 * m + 1] for i in range(n)))
        return out
    return sorted({system.cell_run(rho, m + 1, n) for rho in range(system.modulus(m + 1))})


def refinement_keys(system, m, mp, n, coarse):
    """Reference: the realized radius-mp itinerary words refining one
    radius-m word, listed."""
    if not isinstance(system, Odometer):
        u = coarse[0] + "".join(lab[-1] for lab in coarse[1:])
        if not system.is_admissible(u):
            return []
    if mp == m:
        return [coarse]
    if not isinstance(system, Odometer):
        u = coarse[0] + "".join(lab[-1] for lab in coarse[1:])
        delta = mp - m
        out = []
        for w in system.words(n + 2 * mp):
            if w[delta:len(w) - delta] == u:
                out.append(tuple(w[i:i + 2 * mp + 1] for i in range(n)))
        return out
    return sorted({system.cell_run(rho, mp + 1, n) for rho in range(system.modulus(mp + 1))
                   if system.cell_run(rho, m + 1, n) == coarse})


@pytest.fixture(scope="module")
def pipe():
    return build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))


@pytest.fixture(scope="module")
def odo_pipe():
    return build_pipeline(dyadic_odometer(8), K=2, kmax=3, N_cert=128)


class TestCodebooks:
    def test_first_codebook_golden_nine(self, pipe):
        cb = build_first_codebook(golden_mean(), pipe.schedule, 9)
        assert len(cb) == 89
        first_key = tuple("000000000")
        assert cb.encode(first_key) == "1" * cb.length
        assert cb.decode(cb.encode(first_key)) == first_key

    def test_first_codebook_injective(self, pipe):
        cb = build_first_codebook(golden_mean(), pipe.schedule, 10)
        words = {cb.encode(k) for k in itinerary_keys(golden_mean(), 0, 10)}
        assert len(words) == len(cb)

    @pytest.mark.parametrize("system", [golden_mean(), Sft(2, forbidden=("111", "00")),
                                        Sft(3, forbidden=("22", "201"))],
                             ids=["golden", "memory-2", "three-letter"])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_ranked_codebook_matches_sorted_table(self, system, m):
        """The per-lookup codebook gives every key the codeword of its index
        in the sorted key table, and rejects what the table lacks."""
        for n in range(max(1, system.memory - 2 * m), 8 - 2 * m):
            keys = sorted(itinerary_keys(system, m, n))
            length = code_length_needed(len(keys), 2) + 1
            cb = RankedCodebook(system, m, n, length, 2)
            assert len(cb) == len(keys)
            for i, key in enumerate(keys):
                assert cb.encode(key) == kary_word(i, length, 2)
                assert cb.encode(key, pad_to=length + 2) == kary_word(i, length, 2) + "11"
                assert cb.decode(kary_word(i, length, 2) + "2") == key
            for i in range(len(keys), 2 ** length):
                with pytest.raises(MalformedStreamError):
                    cb.decode(kary_word(i, length, 2))
            for bad in (keys[0][:-1], keys[0] + keys[0][-1:], ("9" * (2 * m + 1),) * n):
                with pytest.raises(MalformedStreamError):
                    cb.encode(bad)
            with pytest.raises(MalformedStreamError):
                cb.decode("3" * length)
            with pytest.raises(MalformedStreamError):
                cb.decode("1" * (length - 1))

    def test_ranked_codebook_capacity(self):
        with pytest.raises(CapacityError):
            RankedCodebook(golden_mean(), 0, 9, 6, 2)       # 89 words > 2^6

    def test_first_codebook_ranked_on_sft(self, pipe):
        cb = build_first_codebook(golden_mean(), pipe.schedule, 9)
        assert isinstance(cb, RankedCodebook)
        keys = itinerary_keys(golden_mean(), 0, 9)
        table = Codebook(1, 9, cb.length, keys, 2)
        assert len(cb) == len(table)
        for key in keys:
            word = table.encode(key)
            assert cb.encode(key) == word
            assert cb.decode(word) == table.decode(word)

    def test_table_codebook_shares_the_ranked_rules(self):
        """The key table pads, rejects and refuses exactly as the ranked
        codebook does: both run the one encode and decode."""
        system = Sft(3, forbidden=("22", "201"))
        keys = itinerary_keys(system, 1, 4)
        length = code_length_needed(len(keys), 2) + 1
        table = Codebook(1, 4, length, keys, 2)
        ranked = RankedCodebook(system, 1, 4, length, 2)
        for key in keys:
            assert table.encode(key, pad_to=length + 2) == \
                ranked.encode(key, pad_to=length + 2)
        for word in ([kary_word(i, length, 2) for i in range(2 ** length)]
                     + ["3" * length, "1" * (length - 1)]):
            outcomes = []
            for cb in (table, ranked):
                try:
                    outcomes.append(cb.decode(word))
                except MalformedStreamError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        for cb in (table, ranked):
            with pytest.raises(MalformedStreamError, match="not in codebook domain"):
                cb.encode(keys[0][:-1])
            with pytest.raises(CapacityError, match="cannot fit"):
                cb.encode(keys[0], pad_to=length - 1)
        with pytest.raises(CapacityError, match="exceeds K"):
            Codebook(1, 4, length - 2, keys, 2)

    @pytest.mark.parametrize("K", [1, 2, 3, 9])
    def test_kary_words_equal_digit_by_digit_reference(self, K):
        # kary_word stops dividing at the last nonzero digit and pads with
        # the first letter; the reference writes every digit
        for length in range(6 if K > 2 else 10):
            for index in range(K ** length):
                want, rest = [], index
                for _ in range(length):
                    rest, digit = divmod(rest, K)
                    want.append("123456789"[digit])
                word = kary_word(index, length, K)
                assert word == "".join(reversed(want))
                assert kary_index(word, K) == kary_index(list(word), K) == index
            with pytest.raises(ValueError, match="out of range"):
                kary_word(K ** length, length, K)

    def test_below_n1_rejected(self, pipe):
        with pytest.raises(ScheduleError):
            build_first_codebook(golden_mean(), pipe.schedule, 5)

    def test_identity_refinement_trivial(self, pipe):
        coarse = tuple(itinerary(golden_mean(), Point("0", "0", "0", 0), 0, (0, 18)))
        cb = build_conditional_codebook(golden_mean(), pipe.schedule, 2, 19, coarse)
        assert cb.length == 0
        assert cb.encode(coarse) == ""

    def test_unknown_context_rejected(self, pipe):
        bad = tuple("1" * 19)  # contains the forbidden word 11
        with pytest.raises(MalformedStreamError):
            build_conditional_codebook(golden_mean(), pipe.schedule, 2, 19, bad)

    def test_odometer_conditional(self, odo_pipe):
        odo = odo_pipe.system
        from shiftembed.systems import OdometerPoint
        p = OdometerPoint(odo, (0,) * 8)
        n2 = odo_pipe.schedule.n[1]
        coarse = tuple(itinerary(odo, p, 0, (0, 63)))
        cb = build_conditional_codebook(odo, odo_pipe.schedule, 2, 64, coarse)
        assert len(cb) == 2  # one extra digit refines each depth-1 itinerary twice
        assert cb.length == 1


class TestPeriodicCode:
    def test_small_orbits_lexicographic(self, pipe):
        code = pipe.periodic_code
        assert code.orbit_code["0"] == "1"
        assert code.orbit_code["01"] == "12"

    def test_prefix_injective_exhaustive(self, pipe):
        code = pipe.periodic_code
        assert verify_injective(code)
        total_points = sum(len(w) for w in code.orbit_code.values())
        assert len(code.prefix_table) == total_points

    def test_shape_condition_beyond_sqrt(self, pipe):
        code = pipe.periodic_code
        assert any(len(w) > 3 for w in code.orbit_code.values())    # sqrt(9)
        for w in code.orbit_code.values():
            assert primitive_and_shaped(w, 9)

    @pytest.mark.parametrize("K, n1max", [(2, 12), (3, 8)])
    def test_code_word_rule_equals_the_lemma_pair(self, K, n1max):
        """_code_word_ok is primitivity and the prefix-shape condition, on
        every word of length 1..n1 for every n1 up to n1max."""
        checked = rejected = 0
        for n in range(1, n1max + 1):
            for w in map("".join, itertools.product(kary_alphabet(K), repeat=n)):
                for n1 in range(n, n1max + 1):
                    ok = codec._code_word_ok(w, n1)
                    assert ok == primitive_and_shaped(w, n1), (w, n1)
                    checked += 1
                    rejected += not ok
        assert 0 < rejected < checked

    def test_count_bound_numeric(self):
        for n in range(1, 17):
            total, bound = forbidden_shape_count_bound(n, 2)
            assert total < bound

    def test_injectivity_check_rebuilds_the_prefixes(self):
        # two orbits of period 5 named by one code word keep one table entry
        # per point: only prefixes rebuilt from the code words show the clash
        code = build_periodic_code(golden_mean(), 2, 9)
        assert verify_injective(code)
        code.orbit_code["00101"] = code.orbit_code["00001"]
        assert len(code.prefix_table) == sum(len(w) for w in code.orbit_code.values())
        assert not verify_injective(code)

    def test_claim_refuses_a_rotation_of_a_taken_word(self):
        code = build_periodic_code(golden_mean(), 2, 9)
        table = dict(code.prefix_table)
        assert code.orbit_code["00001"] == "11112"
        assert not code.claim("00101", "21111")
        assert code.prefix_table == table and code.orbit_code["00101"] == "11122"

    def test_a_repeated_prefix_within_one_word_is_kept_as_claim_keeps_it(self):
        """The one-pass table also counts a word whose own rotations share a
        prefix (a power, which parse refuses first); the claims replayed in
        order accept it, and the table is theirs: the later rotation wins."""
        code = PeriodicCode(9, 2, {"0001": "1212", "01": "11"})
        assert code.orbit_code == {"0001": "1212", "01": "11"}
        assert code.prefix_table == {"121212121": ("0001", 2), "212121212": ("0001", 3),
                                     "111111111": ("01", 1)}

    def test_n1_sixteen_injective(self):
        code = build_periodic_code(golden_mean(), 2, 16)
        assert verify_injective(code)


class TestStreams:
    def test_serialization_roundtrip(self, pipe):
        p = Point("10", "00100", "001", -2)
        s = pipe.encode(p, 2, (-25, 25))
        text = s.to_text()
        back = SymbolStream.from_text(text)
        assert back == s
        assert back.to_text() == text

    def test_text_round_trip_of_every_token_and_resolution(self):
        """Every token a stream file may hold, and the resolutions None, 1-9
        and 12 (the first outside the token table), read back as written."""
        tokens = list(codec._TOKEN_IN)
        resolutions = [None] + list(range(1, 10)) + [12]
        n = max(len(tokens), len(resolutions))
        tokens = list(itertools.islice(itertools.cycle(tokens), n))
        resolutions = list(itertools.islice(itertools.cycle(resolutions), n))
        stream = SymbolStream(0, n - 1, [codec._TOKEN_IN[tok] for tok in tokens], resolutions)
        text = stream.to_text()
        assert text == "window: 0:%d\nsymbols: %s\nresolution: %s\n" % (
            n - 1, " ".join(tokens), " ".join("-" if r is None else str(r) for r in resolutions))
        back = SymbolStream.from_text(text)
        assert (back.symbols, back.resolution) == (stream.symbols, resolutions)
        assert back.to_text() == text

    def test_resolution_entries_outside_the_token_table_read_as_integers(self):
        stream = SymbolStream.from_text("window: 0:2\nsymbols: 1 2 1\n"
                                        "resolution: +1 \u0663 12\n")
        assert stream.resolution == [1, 3, 12]

    def test_limit_marks_unresolved(self, pipe):
        p = Point("10", "00100101001", "001", -5)
        s = pipe.encode_limit(p, (-30, 30))
        sk = pipe.encode(p, 2, (-30, 30))
        for i, (a, b) in enumerate(zip(s.symbols, sk.symbols)):
            if b == "o":
                assert a == "?"
                assert s.resolution[i] is None
            else:
                assert a == b
                assert s.resolution[i] is not None

    def test_equivariance_all_scales(self, pipe):
        for p in sample_points(golden_mean(), 25, seed=23):
            for s0, s1 in zip(pipe.encode_scales(p, (-40, 40)),
                              pipe.encode_scales(p.shifted(1), (-41, 39))):
                assert s0.symbols == s1.symbols

    def test_roundtrip_and_orbit_ids(self, pipe):
        margin = pipe.decode_margin()
        p = Point("01", "0010010", "0", -3)
        stream = pipe.encode(p, 2, (-60 - margin, 60 + margin))
        res = pipe.decode(stream, 2)
        assert "01" in res.orbits and "0" in res.orbits
        for l in (1, 2):
            want = itinerary(golden_mean(), p, pipe.schedule.m[l - 1], (-60, 60))
            assert res.itinerary_list(l, (-60, 60)) == want

    def test_roundtrip_regular_block_inside_singular(self, pipe):
        """The scale-2 return partition lays out the regular block [-2, 7):
        its start moved n_1 + 1 = 10 into the scale-1 stretch [-12, 7), so
        its length 9 is below n_2 = 19 but inside layout_bounds(2)."""
        margin = pipe.decode_margin()
        p = Point("10010", "101010010101010010010000010001000100100000", "010", -7)
        window = (-200 - margin, 200 + margin)
        blk = pipe.context(p, window).layout.block_at(2, 0)
        assert (blk.start, blk.end, blk.kind) == (-2, 7, "regular")
        stream = pipe.encode(p, 2, window)
        res = pipe.decode(stream, 2)
        for l in (1, 2):
            want = itinerary(golden_mean(), p, pipe.schedule.m[l - 1], (-200, 200))
            assert res.itinerary_list(l, (-200, 200)) == want

    def test_verify_records_the_defect_as_a_fail(self, pipe3):
        # verify reports the decode error of the strict xfail
        # TestNonSpecialSingular::test_right_tail_at_n2_after_a_special_stretch
        # as a failed round-trip instead of raising it
        report = verify_pipeline(pipe3, points=[Point("0", "", "0000000101", 0)])
        roundtrip = {r.scale: r for r in report.records
                     if (r.module, r.name) == ("codec", "roundtrip")}
        assert roundtrip[1].ok
        assert not roundtrip[2].ok
        assert "shadowed region content is not periodic" in roundtrip[2].detail
        assert not report.passed

    @pytest.mark.parametrize("scale", [1, 2, 3])
    def test_two_letter_token_in_a_codeword_rejected(self, odo_pipe, scale):
        """A stream file token such as "11" is no code letter, though each
        of its characters is one."""
        window = (-odo_pipe.decode_margin(), odo_pipe.decode_margin())
        point = sample_points(dyadic_odometer(8), 1, seed=3)[0]
        stream = odo_pipe.encode(point, 3, window)
        blk = next(b for b in odo_pipe.context(point, window).layout.layer(scale).blocks
                   if b.kind == "regular" and b.start >= -100)
        symbols = list(stream.symbols)
        symbols[blk.fill_positions[0] - stream.a] += "1"
        with pytest.raises(MalformedStreamError, match="not in codebook image"):
            odo_pipe.decode(SymbolStream(stream.a, stream.b, symbols), 3)

    def test_padding_letter_checked(self, pipe):
        """Every scale-2 code of golden K=2, m=(0,0) has length 0, so a
        scale-2 filling slot holds only padding; a foreign letter there puts
        the stream outside the code's image."""
        margin = pipe.decode_margin()
        window = (-margin, margin)
        point = sample_points(golden_mean(), 12, seed=3)[0]
        stream = pipe.encode(point, 2, window)
        blk = pipe.context(point, window).layout.block_at(2, -22)
        assert (blk.start, blk.end, blk.kind) == (-22, 1, "regular")
        coarse = pipe.system.labels(point, blk.start, 0, blk.length())
        assert codec._block_codebook(pipe, 2, blk, coarse).length == 0
        symbols = list(stream.symbols)
        assert symbols[blk.fill_positions[0] - stream.a] == codec.SYM_PAD
        symbols[blk.fill_positions[0] - stream.a] = "2"
        with pytest.raises(MalformedStreamError, match="padding slot 0 of a scale-2 block"):
            pipe.decode(SymbolStream(stream.a, stream.b, symbols), 2)

    def test_symbol_soup_rejected(self, pipe):
        soup = SymbolStream(-30, 30, (list("12") * 31)[:61])
        soup.symbols[5] = "|"
        soup.symbols[11] = "|"
        with pytest.raises(MalformedStreamError):
            pipe.decode(soup, 1)

    def test_invert_truncated_stream(self, pipe):
        p = Point("10", "00100", "001", -2)
        short = pipe.encode(p, 1, (-20, 20))
        with pytest.raises(WindowError):
            pipe.invert(short, 1)

    def test_invert_recovers_cell(self, pipe):
        margin = pipe.decode_margin()
        for p in sample_points(golden_mean(), 8, seed=31):
            stream = pipe.encode(p, 1, (-margin, margin))
            assert pipe.invert(stream, 1) == p.letter(0)

    def test_pi_k_form_reverts_deeper_scales(self, pipe, pipe3, odo_pipe):
        """Decoding psi_kmax at a scale k < kmax gives psi_k back as its pi_k
        stream on the certified scale-k window."""
        cases = 0
        for p in (pipe, pipe3, odo_pipe):
            margin = p.decode_margin()
            window = (-100 - margin, 100 + margin)
            for point in sample_points(p.system, 25, seed=3):
                *lower, top = p.encode_scales(point, window)
                for k, psi_k in enumerate(lower, 1):
                    res = p.decode(top, k)
                    lo, hi = res.certified[k]
                    assert restrict(res.stream_k, lo, hi).symbols == \
                        restrict(psi_k, lo, hi).symbols
                    cases += 1
        assert cases == 25 + 25 + 50


class TestConvergence:
    def test_dN_bound_scale1(self, pipe):
        from shiftembed.metrics import stream_dN
        N = pipe.schedule.n[0] ** 2
        alpha = pipe.schedule.alpha_float
        worst = 0
        for p in sample_points(golden_mean(), 20, seed=41):
            s1, s2 = pipe.encode_scales(p, (-4 * N, 4 * N))
            sK = s2.unresolved()
            worst = max(worst, stream_dN(s1, sK, N))
        assert worst <= 3 * alpha / 2

    def test_coordinate_changes_at_most_twice(self, pipe):
        for p in sample_points(golden_mean(), 12, seed=43):
            s1, s2 = pipe.encode_scales(p, (-60, 60))
            changes = sum(1 for a, b in zip(s1.symbols, s2.symbols) if a != b)
            per_coord = [int(a != b) for a, b in zip(s1.symbols, s2.symbols)]
            assert max(per_coord) <= 2

    def test_periodic_point_stream_periodic_same_least_period(self, pipe):
        pts, _ = enumerate_periodic(golden_mean(), 4)
        for p in pts:
            s = pipe.encode_limit(p, (-40, 40))
            word = "".join(s.symbols)
            assert min_period(word) == 4

    def test_epsilon_injectivity_exhaustive(self, pipe):
        """Equal scale-1 streams of radius 4 n_1 imply the same V_1 cell."""
        R = 4 * pipe.schedule.n[0]
        family = []
        for n in range(1, 7):
            family.extend(enumerate_periodic(golden_mean(), n)[0])
        family.extend(sample_points(golden_mean(), 40, seed=47))
        streams = [(p, tuple(pipe.encode(p, 1, (-R, R)).symbols)) for p in family]
        for i, (p, sp) in enumerate(streams):
            for q, sq in streams[i + 1:]:
                if sp == sq:
                    assert p.letter(0) == q.letter(0)


class TestIdentification:
    def test_cylinder_partitions_pin_orbit(self, pipe):
        from shiftembed.codec import build_identification_codebook
        from shiftembed.words import periodic_window
        sched = pipe.schedule
        w = least_period_words(golden_mean(), 12)[0]
        fine = tuple(periodic_window(w, t, t) for t in range(12))
        cb = build_identification_codebook(golden_mean(), sched, 2, 12, fine)
        assert cb.length == 0 and len(cb) == 1


class TestChangeDensityAndInjectivity:
    def test_block_change_density_bound(self, pipe):
        """Fraction of symbols changed between consecutive scale codes on a
        resolved window of length >= n_k^2 stays within the quantitative
        budget alpha/2^k + 2/n_k + 16 n_k / length."""
        sched = pipe.schedule
        n1 = sched.n[0]
        L = 3 * n1 ** 2
        alpha = sched.alpha_float
        bound = alpha / 2 + 2 / n1 + 16 * n1 / (2 * L + 1)
        for p in sample_points(golden_mean(), 15, seed=53):
            s1, s2 = pipe.encode_scales(p, (-L, L))
            diffs = sum(1 for a, b in zip(s1.symbols, s2.symbols) if a != b)
            assert diffs / (2 * L + 1) <= bound

    def test_psi_injective_once_separated(self, pipe):
        """Points in different V_{kmax} cells at time zero produce different
        limit streams on the certified window."""
        pts = sample_points(golden_mean(), 30, seed=59)
        R = pipe.decode_margin()
        streams = [(p, tuple(pipe.encode_limit(p, (-R, R)).symbols)) for p in pts]
        for i, (p, sp) in enumerate(streams):
            for q, sq in streams[i + 1:]:
                if p.letter(0) != q.letter(0):
                    assert sp != sq


@pytest.fixture(scope="module")
def pipe3():
    return build_pipeline(golden_mean(), K=3, kmax=2, C=0.0, m=(0, 0))


def _roundtrip(pipe, point, window=(-200, 200)):
    """Encode at the top scale with the decode margin, decode, and compare
    every scale with the point's itinerary on the window."""
    margin = pipe.decode_margin()
    a, b = window
    stream = pipe.encode(point, pipe.kmax, (a - margin, b + margin))
    res = pipe.decode(stream, pipe.kmax)
    for l in range(1, pipe.kmax + 1):
        want = itinerary(pipe.system, point, pipe.schedule.m[l - 1], window)
        assert res.itinerary_list(l, window) == want
    return stream


class TestEncodeScales:
    """One encode pass yields psi_1, ..., psi_kmax from one point context."""

    @pytest.mark.parametrize("system, kwargs", [
        (golden_mean(), dict(K=2, kmax=2, C=0.0, m=(0, 0))),
        (golden_mean(), dict(K=3, kmax=2, C=0.0, m=(0, 0))),
        (dyadic_odometer(8), dict(K=2, kmax=3, N_cert=128)),
        (orbit_system(2, "001"), dict(K=2, kmax=2, C=0.0, m=(0, 0))),
    ], ids=["golden-K2", "golden-K3", "odometer", "orbit001"])
    def test_pass_equals_each_scale_and_the_limit(self, system, kwargs):
        pipe = build_pipeline(system, **kwargs)
        window = (-50, 50)
        for point in sample_points(system, 4, seed=3):
            streams = list(pipe.encode_scales(point, window))
            assert [s.to_text() for s in streams] == \
                [pipe.encode(point, k, window).to_text() for k in range(1, pipe.kmax + 1)]
            assert streams[-1].unresolved().to_text() == \
                pipe.encode_limit(point, window).to_text()

    def test_a_scale_that_raises_ends_the_pass(self):
        grow3 = build_pipeline(golden_mean(), K=3, kmax=2, C=0.0, m=(0, 1))
        point = Point("010", "10010001010010010", "10000", -17)
        margin = grow3.decode_margin()
        window = (-60 - margin, 60 + margin)
        scales = grow3.encode_scales(point, window)
        assert next(scales) == grow3.encode(point, 1, window)
        with pytest.raises(CapacityError, match="codeword of length 2 cannot fit 1 slots"):
            next(scales)
        assert next(scales, None) is None

    def test_scale_k_resolves_no_deeper_scale(self, pipe, monkeypatch):
        calls = []

        def counted(point, stack, k, *args, **kwargs):
            calls.append(k)
            return return_partition(point, stack, k, *args, **kwargs)

        monkeypatch.setattr(codec, "return_partition", counted)
        point = Point("10", "00100", "001", -2)
        pipe.encode(point, 1, (-40, 40))
        assert calls == [1]
        pipe.encode(point, 2, (-40, 40))
        assert calls == [1, 1, 2]


def _render_texts(point, pipe, window):
    """The to_text of each stream render_scales yields, then the error
    text that ended the pass, if any."""
    texts = []
    try:
        for stream in codec.render_scales(point, pipe, window):
            texts.append(stream.to_text())
    except ShiftEmbedError as exc:
        texts.append("%s: %s" % (type(exc).__name__, exc))
    return texts


class TestListRender:
    """render_scales writes psi_1, ..., psi_kmax into two lists over the
    context range; the reference writes them into one dict of (symbol,
    scale) pairs, which takes any position without wrapping it."""

    CONFIGS = {
        "golden-K2": (golden_mean, dict(K=2, kmax=2, C=0.0, m=(0, 0))),
        "golden-K3": (golden_mean, dict(K=3, kmax=2, C=0.0, m=(0, 0))),
        "growing-K3": (golden_mean, dict(K=3, kmax=2, C=0.0, m=(0, 1))),
        "odometer": (lambda: dyadic_odometer(8), dict(K=2, kmax=3, N_cert=128)),
        "orbit001": (lambda: orbit_system(2, "001"), dict(K=2, kmax=1, C=0.0, m=(0,))),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_equals_dict_render(self, name):
        make_system, kwargs = self.CONFIGS[name]
        system = make_system()
        pipe = build_pipeline(system, **kwargs)
        points = sample_points(system, 6, seed=3)
        if make_system is golden_mean:
            points += long_tail_points((10, 13, 19, 31), 1) + bounded_stretch_points()
        margin = pipe.decode_margin()
        window = (-200 - margin, 200 + margin)
        coded, errors = set(), []
        for point in points:
            texts, (lo, hi), written = dict_render_scales(point, pipe, window)
            assert _render_texts(point, pipe, window) == texts, point
            assert lo <= min(written) and max(written) <= hi
            if not texts[-1].startswith("window"):
                errors.append(texts[-1])
                continue
            for layer in pipe.context(point, window).layout.layers:
                coded.update(blk.special for blk in layer.blocks
                             if blk.kind == "singular" and blk.cond_positions)
        if name in ("golden-K2", "golden-K3"):
            # a non-special singular block writes its per-period codes
            assert False in coded
        # the eaten-block clamp ends a growing-radius pass at scale 2
        assert errors == (["CapacityError: codeword of length 2 cannot fit 1 slots"]
                          if name == "growing-K3" else [])

    def test_a_stretch_ending_at_the_context_range_writes_nothing(self, pipe):
        """The layer keeps a scale-1 stretch that ends at or before the
        context range's first position; its slice is empty, not one that
        counts from the end of the lists."""
        point = bounded_stretch_points()[1]
        part = return_partition(point, pipe.stack, 1, (-60, 60))
        s, e = next((iv.start, iv.end) for iv in part.intervals if iv.kind == "singular"
                    and iv.start is not None and iv.end is not None)
        pad = 4 * sum(pipe.schedule.nprime)
        for lo in (e - 1, e, e + 1):
            window = (lo + pad, lo + pad + 40)
            layer = pipe.context(point, window).layout.layer(1)
            assert any((blk.start, blk.end) == (s, e) for blk in layer.blocks)
            assert _render_texts(point, pipe, window) == \
                dict_render_scales(point, pipe, window)[0]


class TestNonSpecialSingular:
    """Golden K=2 at n_2 = 19 has budget(19, 2) = 1: a singular scale-2
    block of least period 19 is non-special and carries its conditional and
    identification codes.  No sampled point reaches such a block."""

    @pytest.mark.parametrize("shape", ["two-sided", "right-tail", "left-tail"])
    def test_codes_written_and_read_back(self, pipe, shape):
        for v in least_period_words(golden_mean(), 19)[:3]:
            point = {"two-sided": Point(v, "", v, 0), "right-tail": Point("0", "", v, 0),
                     "left-tail": Point(v, "", "0", 0)}[shape]
            margin = pipe.decode_margin()
            ctx = pipe.context(point, (-200 - margin, 200 + margin))
            assert any(blk.kind == "singular" and not blk.special
                       and blk.cond_positions and blk.ident_positions
                       for blk in ctx.layout.layer(2).blocks)
            _roundtrip(pipe, point)
            for s0, s1 in zip(pipe.encode_scales(point, (-60, 60)),
                              pipe.encode_scales(point.shifted(1), (-61, 59))):
                assert s0.symbols == s1.symbols

    @pytest.mark.xfail(strict=True, raises=MalformedStreamError, reason=(
        "the scale-2 singular region (-2, inf) follows the special stretch "
        "(-inf, -2) with no bracket between them; _split_singular_region "
        "keeps the n'_k deep-zone margin only at bounded region ends, so "
        "_extract_period reads [-2, B] with the junction letters and raises "
        "'shadowed region content is not periodic'; 10 of the 11 orbits of "
        "least period 10 = n_2 fail in this shape"))
    def test_right_tail_at_n2_after_a_special_stretch(self, pipe3):
        _roundtrip(pipe3, Point("0", "", "0000000101", 0))


class TestUnreadSingularSlots:
    """The conditional and identification slots of a non-special singular
    block carry its codes, and the decoder reads them back by rendering the
    block: the scale-2 block (None, -19) of period 19 holds the pad letter 1
    at identification slot -182 and at conditional slot -191, and a stream
    with 2 at either slot is refused there."""

    POINT = Point("0000001000100100100", "1000010000100101001001010",
                  "0100001010101000100", -7)

    def test_a_changed_slot_is_seen(self, pipe):
        margin = pipe.decode_margin()
        window = (-200 - margin, 200 + margin)
        blk = pipe.context(self.POINT, window).layout.layer(2).block_at(-182)
        assert (blk.start, blk.end, blk.m, blk.special) == (None, -19, 19, False)
        assert -182 in blk.ident_positions and -191 in blk.cond_positions
        stream = pipe.encode(self.POINT, 2, window)
        for t in (-182, -191):
            assert stream.get(t) == "1"
            symbols = list(stream.symbols)
            symbols[t - stream.a] = "2"
            with pytest.raises(MalformedStreamError) as info:
                pipe.decode(SymbolStream(stream.a, stream.b, symbols), 2)
            assert (str(info.value), info.value.scale, info.value.position) == \
                ("code slot %d of a singular scale-2 block holds '2'" % t, 2, t)


class TestTopFreeSlots:
    """At the top scale a free slot holds 'o' or '?': no deeper layer writes
    there, so a code letter in a free slot of a regular block puts the
    stream outside the code's image."""

    @staticmethod
    def free_slots(pipe, point, window):
        layer = pipe.context(point, window).layout.layer(pipe.kmax)
        return [t for blk in layer.blocks if blk.kind == "regular" for t in blk.free_slots
                if -200 <= t <= 200]

    def test_odometer(self, odo_pipe):
        rng = random.Random(3)
        R = 200 + odo_pipe.decode_margin()
        refused = 0
        for point in sample_points(dyadic_odometer(8), 10, seed=3):
            stream = odo_pipe.encode(point, 3, (-R, R))
            for t in rng.sample(self.free_slots(odo_pipe, point, (-R, R)), 5):
                letter = rng.choice("12")
                symbols = list(stream.symbols)
                assert symbols[t - stream.a] == "o"
                symbols[t - stream.a] = letter
                with pytest.raises(MalformedStreamError) as info:
                    odo_pipe.decode(SymbolStream(stream.a, stream.b, symbols), 3)
                assert (str(info.value), info.value.scale, info.value.position) == \
                    ("free slot %d holds %r" % (t, letter), 3, t)
                refused += 1
        assert refused == 50

    def test_golden(self, pipe):
        window = (-200 - pipe.decode_margin(), 200 + pipe.decode_margin())
        point = sample_points(golden_mean(), 10, seed=3)[9]
        assert self.free_slots(pipe, point, window) == [27]
        stream = pipe.encode(point, 2, window)
        symbols = list(stream.symbols)
        symbols[27 - stream.a] = "2"
        with pytest.raises(MalformedStreamError, match="^free slot 27 holds '2'$"):
            pipe.decode(SymbolStream(stream.a, stream.b, symbols), 2)


class TestStretchFreeing:
    """The decoder checks a singular stretch against the roles of the layers
    it lays out (BlockLayout.roles): a stretch position that a layer frees
    holds a free slot, one that a layer fills or brackets is read by that
    layer, and one that no layer takes holds the orbit letter.  The layout
    frees stretch slots in two ways, both anchored where the layout puts
    them: in a special singular block from its adjusted start, and in a
    special subblock of a regular block (blocks._free_in_special_subblocks)."""

    FILLED_IN_FREED_SLOT = Point("00100", "1010100001010100001010", "100000", -8)
    ANCHORED_AT_ADJUSTED_START = Point("01", "0100010010", "0010101", 0)

    def test_freed_slots_of_unbounded_stretch_roundtrip(self, pipe3):
        """The left-unbounded period-7 stretch of this point holds the only
        non-empty freed set the sampled configurations reach: 46 scale-2
        slots, all of which the decoder accepts."""
        p = Point("0010101", "0100010010", "01", 0)
        stream = _roundtrip(pipe3, p)
        frees = [t for t in range(stream.a, stream.b + 1) if stream.get(t) == "o"]
        assert len(frees) == 46
        assert all(t < -5 for t in frees)      # inside the stretch (-inf, -5)
        t = frees[0]
        swapped = list(stream.symbols)
        i = t - stream.a
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        with pytest.raises(MalformedStreamError, match="freed slot %d of a stretch holds" % t):
            pipe3.decode(SymbolStream(stream.a, stream.b, swapped, stream.resolution), 2)

    def test_roundtrip_filling_in_freed_subblock_slot(self, pipe):
        """_free_in_special_subblocks frees position 4 of the special scale-1
        stretch [-6, 15) inside the regular scale-2 block [-16, 25), which
        writes a scale-2 filling letter there."""
        _roundtrip(pipe, self.FILLED_IN_FREED_SLOT)

    def test_roundtrip_freeing_anchored_at_adjusted_start(self, pipe3):
        """The layout anchors the scale-2 freeing of the special singular
        block at its adjusted start 21, not at the stretch start 11: slot 36
        is freed."""
        _roundtrip(pipe3, self.ANCHORED_AT_ADJUSTED_START)

    @pytest.mark.parametrize("point, config, symbol, error", [
        (FILLED_IN_FREED_SLOT, "pipe", "letter", "stretch content clashes with orbit"),
        (ANCHORED_AT_ADJUSTED_START, "pipe3", "o", "free slot inside a stretch"),
    ], ids=["clash", "free-slot"])
    def test_untaken_stretch_position_holds_the_orbit_letter(self, request, point, config,
                                                              symbol, error):
        """A mutation at a stretch position past the protected prefix that
        no layer frees, fills or brackets is refused."""
        pipe = request.getfixturevalue(config)
        margin = pipe.decode_margin()
        window = (-200 - margin, 200 + margin)
        stream = pipe.encode(point, 2, window)
        layout = pipe.context(point, window).layout
        merged = roles(layout)
        stretch = next(blk for blk in layout.layer(1).blocks
                       if blk.kind == "singular" and blk.start is not None and blk.start > 0)
        t = next(t for t in range(stretch.start + pipe.schedule.n[0] + 1, stream.b)
                 if merged[t] == (ROLE_SINGULAR_FILL, 1))
        symbols = list(stream.symbols)
        old = symbols[t - stream.a]
        symbols[t - stream.a] = ("2" if old == "1" else "1") if symbol == "letter" else symbol
        with pytest.raises(MalformedStreamError, match=error):
            pipe.decode(SymbolStream(stream.a, stream.b, symbols), 2)

    @pytest.mark.xfail(strict=True, raises=WindowError, reason=(
        "a period-7 point frees a slot in every period, so no unbroken "
        "n_1-digit prefix is left for the decoder to read: nothing is "
        "certified and itinerary_list raises WindowError; all 140 golden "
        "points of least period 7-9 behave this way"))
    def test_roundtrip_periodic_point_with_freed_slot_every_period(self, pipe3):
        _roundtrip(pipe3, Point("0010101", "", "0010101", 0))


class TestWindowEdge:
    """Golden K=2 points whose tails are made of regular scale-1 blocks
    (least period 13 > n_1 = 9).  The region before the first boundary of
    the stream is shorter than any regular block, so it is a block the left
    edge cut, and the decoder leaves it uncertified whatever it holds."""

    EDGE_POINT = Point("0001000000000", "000100", "1001001000000", -1)

    def test_roundtrip_tail_cut_near_the_edge(self, pipe):
        # the stream [-446, 446] cuts a block of the left tail ten positions
        # from its edge, and that block's letters clash with any orbit
        _roundtrip(pipe, Point("0010000010101", "001010", "1010100000010", -4))

    def test_roundtrip_where_the_window_cut_is_harmless(self, pipe):
        _roundtrip(pipe, self.EDGE_POINT)

    def test_roundtrip_same_point_on_a_wider_window(self, pipe):
        _roundtrip(pipe, self.EDGE_POINT, window=(-300, 300))

    @pytest.mark.xfail(strict=True, raises=MalformedStreamError, reason=(
        "_decode_scale1 reads a right-unbounded stretch up to the stream's "
        "end, but a stretch whose terminator lies past the right edge can "
        "start in the last n_1 positions: on [-446, 446] decode raises "
        "\"stretch content clashes with orbit '000010001' at 444\""))
    def test_roundtrip_stretch_starting_near_the_right_edge(self, pipe):
        _roundtrip(pipe, Point("01001001001000000101", "01010100010000010101010100100",
                               "00010001000010001010", -22))


class TestDecodeErrorLocation:
    """A decode error names the scale and the position of the fault as
    attributes, as well as in its text."""

    @pytest.mark.parametrize("t, symbol, scale, text", [
        (-54, "|", 1, "block [-54, -22) has impossible length"),
        (-309, "2", 1, "stretch content clashes with orbit '001' at -309"),
        (-417, "][", 2, "scale-2 block (-417, -22) has length 395 outside [9, 66)"),
    ], ids=["scale-1-block", "stretch", "scale-2-block"])
    def test_mutated_stream(self, pipe, t, symbol, scale, text):
        margin = pipe.decode_margin()
        point = sample_points(golden_mean(), 1, seed=3)[0]
        stream = pipe.encode(point, 2, (-200 - margin, 200 + margin))
        symbols = list(stream.symbols)
        symbols[t - stream.a] = symbol
        with pytest.raises(MalformedStreamError) as info:
            pipe.decode(SymbolStream(stream.a, stream.b, symbols), 2)
        assert (str(info.value), info.value.scale, info.value.position) == (text, scale, t)

    def test_uncertified_window(self, pipe):
        margin = pipe.decode_margin()
        point = sample_points(golden_mean(), 1, seed=3)[0]
        res = pipe.decode(pipe.encode(point, 2, (-200 - margin, 200 + margin)), 2)
        with pytest.raises(WindowError) as info:
            res.itinerary_list(2, (-1000, 0))
        assert (info.value.scale, info.value.position) == (2, None)


class TestRefusalTexts:
    """Each refusal of the codec's entry points fires with its text."""

    def test_invert_refuses_an_uncertified_time_zero(self, pipe):
        # one code letter, '2', over the whole window invert asks for: no
        # orbit's code and no marker, so the decode certifies no window
        margin = pipe.schedule.decode_radius(1)
        stream = SymbolStream(-margin, margin, ["2"] * (2 * margin + 1))
        with pytest.raises(WindowError, match="^time zero not certified at scale 1$") as info:
            pipe.invert(stream, 1)
        assert (info.value.scale, info.value.position) == (1, 0)

    def test_periodic_code_refuses_n1_below_its_precondition(self):
        # golden K=2 n_1 = 2: two points of least period 2, not below 2^1
        with pytest.raises(ScheduleError, match=r"^periodic-code precondition "
                           r"#Per_\{n1\} < K\^\{n1-1\} fails$"):
            build_periodic_code(golden_mean(), 2, 2)

    def test_periodic_code_exhausted(self):
        # two orbits of least period 2 and no point of least period 6, so the
        # precondition holds at n_1 = 6; but "01" is the only primitive
        # binary necklace of length 2, and the second orbit finds no word
        two_cycles = Sft(4, matrix=[[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        with pytest.raises(CapacityError, match="^periodic code exhausted at period 2$") as info:
            build_periodic_code(two_cycles, 2, 6)
        assert (info.value.scale, info.value.block) == (1, 2)

    @pytest.mark.parametrize("line", ["orbits: 0 -> 1", "orbit: 0 1", "orbit: 0 -> 1"],
                             ids=["key", "arrow", "repeated"])
    def test_periodic_code_parse_refuses_a_line(self, pipe, line):
        text = pipe.periodic_code.serialize().replace("orbit: 0 -> 1", "orbit: 0 -> 1\n" + line)
        with pytest.raises(SpecParseError, match="^periodic code line '%s'$" % line):
            PeriodicCode.parse(text, golden_mean(), 9, 2)

    def test_stream_text_refuses_an_unknown_token(self):
        with pytest.raises(SpecParseError) as err:
            SymbolStream.from_text("window: 0:2\nsymbols: B1 foo 1\n")
        assert str(err.value) == ("stream token 'foo' is not one of B1 B2 LB RB DB FR UN "
                                  "or a code letter")

    def test_stream_text_refuses_a_symbol_count(self):
        with pytest.raises(SpecParseError) as err:
            SymbolStream.from_text("window: 0:5\nsymbols: 1 1\nresolution: 1 1\n")
        assert str(err.value) == "stream has 2 symbols for window 0:5"

    def test_stream_text_refuses_a_resolution_count(self):
        with pytest.raises(SpecParseError,
                           match="^stream has 1 resolution entries for 2 symbols$"):
            SymbolStream.from_text("window: 0:1\nsymbols: 1 2\nresolution: 1\n")

    def test_stream_text_refuses_a_resolution_entry(self):
        """The first entry that is neither '-' nor an integer is named."""
        with pytest.raises(SpecParseError,
                           match="^stream resolution entry must be an integer, not 'x'$"):
            SymbolStream.from_text("window: 0:2\nsymbols: 1 2 1\nresolution: 1 - x\n")
        with pytest.raises(SpecParseError,
                           match="^stream resolution entry must be an integer, not '1.5'$"):
            SymbolStream.from_text("window: 0:2\nsymbols: 1 2 1\nresolution: 1.5 - y\n")
        stream = SymbolStream.from_text("window: 0:2\nsymbols: 1 2 1\nresolution: 1 - 2\n")
        assert stream.resolution == [1, None, 2]

    def test_stream_refuses_a_symbol_count(self):
        with pytest.raises(ValueError, match="^symbol count does not match window$"):
            SymbolStream(0, 2, ["1"])

    def test_stream_get_refuses_a_position_outside(self):
        with pytest.raises(WindowError,
                           match=r"^position 3 outside stream window \[0, 2\]$") as info:
            SymbolStream(0, 2, ["1", "2", "1"]).get(3)
        assert info.value.position == 3

    @pytest.mark.parametrize("k", [0, 3])
    def test_encode_and_decode_refuse_a_scale(self, pipe, k):
        stream = pipe.encode(Point("0", "", "0"), 2, (-5, 5))
        with pytest.raises(ValueError, match="^scale %d out of range$" % k):
            pipe.encode(Point("0", "", "0"), k, (-5, 5))
        with pytest.raises(ValueError, match="^scale %d out of range$" % k):
            pipe.decode(stream, k)

    def test_conditional_codebook_refuses_scale_1(self, pipe):
        with pytest.raises(ValueError, match="^conditional codebooks start at scale 2$"):
            build_conditional_codebook(golden_mean(), pipe.schedule, 1, 9, ("0",) * 9)

    def test_refinement_refuses_a_context_shorter_than_the_memory(self):
        # memory 3: the one-letter context of a block of length 1 spans no state
        with pytest.raises(ScheduleError, match="^context '0' is shorter than the memory$"):
            build_conditional_codebook(Sft(2, forbidden=("111", "0101")), _schedule(0, 1),
                                       2, 1, ("0",))


class TestLabelsAtBlockEnds:
    """A one-letter mutation of a codeword can decode to labels that no
    point has: at a block end the labels at t - 1 and t are not one point's
    cells at consecutive times.  Such a stream is malformed."""

    def _mutated_decode(self, pipe, point, k, t, symbol):
        margin = 100 + pipe.decode_margin()
        stream = pipe.encode(point, k, (-margin, margin))
        pipe.decode(stream, k)
        symbols = list(stream.symbols)
        symbols[t - stream.a] = symbol
        with pytest.raises(MalformedStreamError) as info:
            pipe.decode(SymbolStream(stream.a, stream.b, symbols), k)
        return str(info.value), info.value.scale, info.value.position

    def test_word_labels_that_do_not_overlap(self):
        pipe = build_pipeline(golden_mean(), K=3, kmax=2, C=0.0, m=(0, 1))
        point = Point("0100", "01000010010000100100010000000010000", "010100", -12)
        assert self._mutated_decode(pipe, point, 2, -7, "2") == (
            "scale-2 labels '000' at -17 and '101' at -16 describe no point", 2, -16)

    def test_odometer_cells_that_do_not_step_by_one(self, odo_pipe):
        point = OdometerPoint(dyadic_odometer(8), (1, 1, 0, 1, 0, 0, 0, 0))
        assert self._mutated_decode(odo_pipe, point, 3, 651, "2") == (
            "scale-2 labels (1, 1) at 628 and (0, 1) at 629 describe no point", 2, 629)


class TestMovedBracket:
    """Two decoder refusals that no single substitution reaches: a scale-2
    bracket trades places with another symbol of its stream."""

    POINT = Point("010", "0010001010001000010101010010001010101010", "001", -21)

    def _swapped_decode(self, pipe, s, t):
        margin = 100 + pipe.decode_margin()
        stream = pipe.encode(self.POINT, 2, (-margin, margin))
        pipe.decode(stream, 2)
        symbols = list(stream.symbols)
        symbols[s - stream.a], symbols[t - stream.a] = symbols[t - stream.a], symbols[s - stream.a]
        with pytest.raises(MalformedStreamError) as info:
            pipe.decode(SymbolStream(stream.a, stream.b, symbols), 2)
        return str(info.value), info.value.scale, info.value.position

    def test_bracket_moved_to_a_later_free_slot(self, pipe3):
        # the scale-1 block [-13, 1) has free slots -3..0: the scale-2 '['
        # at -3, two filling slots and a free 'o' at 0.  Moved to 0, the
        # '[' marks the same boundary, so the decoder lays out the same
        # block, whose marker slot -3 now holds the 'o'
        assert self._swapped_decode(pipe3, -3, 0) == (
            "marker slot -3 lacks its symbol", 2, -3)

    def test_block_too_short_for_its_conditional_code(self):
        # the '[' of the scale-2 block [-33, -13) sits in a scale-1 stretch;
        # moved to -25 in the same stretch it opens the block there, whose
        # length 12 is in layout_bounds(2) but whose budget of 1 letter
        # cannot hold the conditional code at m = (0, 1)
        pipe = build_pipeline(golden_mean(), K=3, kmax=2, C=0.0, m=(0, 1))
        assert self._swapped_decode(pipe, -33, -25) == (
            "scale-2 block [-25, -13): conditional code needs 2 letters, budget 1", 2, -25)


def _letter_keys(system, m, n, mod):
    """Itinerary keys of every residue below mod, built letter by letter."""
    return {rho: tuple(system.digits_of_residue((rho + t) % mod, m + 1) for t in range(n))
            for rho in range(mod)}


class TestGapBetweenStretches:
    """A scale-2 singular region whose deep zone holds two scale-1
    stretches with scale-1 blocks between them: _split_singular_region
    names the gap by its own decoded period, as a piece between the two
    stretch pieces.  No encoded stream has one (a scale-2 region shadows one
    orbit); three substitutions in a golden K=3 stream make one, and the
    decode then refuses the stream at a freed slot of the first stretch."""

    def test_gap_is_its_own_piece(self, pipe3, monkeypatch):
        stream = pipe3.encode(Point("00001", "0000101001", "001010", -2), 2, (-85, 87))
        symbols = list(stream.symbols)
        for t, old, new in [(38, "1", "o"), (63, "1", "="), (42, "3", "|")]:
            assert symbols[t + 85] == old
            symbols[t + 85] = new
        split = codec._split_singular_region
        regions = {}

        def recording(iv, *args):
            pieces = split(iv, *args)
            regions[iv.start, iv.end] = [(q.start, q.end, q.orbit) for q in pieces]
            return pieces

        monkeypatch.setattr(codec, "_split_singular_region", recording)
        with pytest.raises(MalformedStreamError, match="free slot inside a stretch at 38"):
            pipe3.decode(SymbolStream(-85, 87, symbols), 2)
        assert regions[7, None] == [(7, 42, "000101"), (42, 54, "0000100101"),
                                    (54, None, "000101")]


class TestOdometerKeys:
    """Odometer keys are slices of the per-depth cell table; each must equal
    the key built letter by letter from the digits of the point's residue at
    each time."""

    ODOMETERS = [dyadic_odometer(8), Odometer([3, 2, 5])]

    @pytest.mark.parametrize("odo", ODOMETERS, ids=["dyadic8", "base325"])
    def test_block_key_equals_cell_labels(self, odo):
        top = odo.modulus(odo.depth)
        for digits in ((0,) * odo.depth, tuple(p - 1 for p in odo.base),
                       tuple(i % p for i, p in enumerate(odo.base))):
            point = OdometerPoint(odo, digits)
            for d in range(1, odo.depth + 1):
                mod = odo.modulus(d)
                # starts just before a wrap of the depth-d modulus, lengths
                # from one letter to past the full modulus
                for start in (-mod - 1, -1, 0, mod - point.residue % mod - 2, 5):
                    for n in (1, mod - 1, mod, mod + 3, 2 * top + 1):
                        want = tuple(odo.digits_of_residue(point.residue_at(t, d), d)
                                     for t in range(start, start + n))
                        assert odo.labels(point, start, d - 1, n) == want
                        assert cell_label(odo, point, start, d - 1) == want[0]

    @pytest.mark.parametrize("odo", ODOMETERS, ids=["dyadic8", "base325"])
    def test_itinerary_and_refinement_keys_equal_letter_reference(self, odo):
        for m in range(min(odo.depth, 3)):
            mod = odo.modulus(m + 1)
            for n in (1, mod, mod + 2):
                coarse_keys = _letter_keys(odo, m, n, mod)
                assert itinerary_keys(odo, m, n) == sorted(set(coarse_keys.values()))
                for mp in range(m + 1, min(odo.depth, m + 3)):
                    mod_f = odo.modulus(mp + 1)
                    fine_keys = _letter_keys(odo, mp, n, mod_f)
                    for coarse in sorted(set(coarse_keys.values())):
                        want = sorted({fine_keys[rho] for rho in range(mod_f)
                                       if coarse_keys[rho % mod] == coarse})
                        assert refinement_keys(odo, m, mp, n, coarse) == want


class TestWordKeys:
    """Word keys are the windows of one slice (words._window_key); each must
    equal the key built position by position from the point's letters, or
    through periodic_window for an orbit."""

    @pytest.mark.parametrize("system, K", [(golden_mean(), 2), (Sft(2, ("00", "111")), 3)],
                             ids=["golden", "sft00-111"])
    def test_block_key_equals_cell_labels(self, system, K):
        pipe = build_pipeline(system, K=K, kmax=2, C=0.0, m=(0, 0))
        blocks = {1: 0, 2: 0}
        for point in sample_points(system, 20, seed=3):
            for layer in pipe.context(point, (-200, 200)).layout.layers:
                for blk in layer.blocks:
                    if blk.kind != "regular":
                        continue
                    blocks[layer.scale] += 1
                    for m in (0, 1, 2):
                        want = tuple(point.word(t - m, t + m) for t in range(blk.start, blk.end))
                        assert system.labels(point, blk.start, m, blk.length()) == want
                        assert cell_label(system, point, blk.start, m) == want[0]
        assert min(blocks.values()) >= 20

    def test_periodic_window_equals_letter_by_letter(self):
        """Letter i of periodic_window(w, a, b, phase) is w[(i + phase) % |w|],
        in w's type, for windows inside one copy of w and across copies."""
        for w in ("0", "0010101", list("0010101"), tuple("01")):
            for a in range(-9, 10):
                for b in range(a, a + 20):
                    for phase in (0, 3, -2):
                        got = periodic_window(w, a, b, phase)
                        assert type(got) is type(w)
                        assert list(got) == [w[(i + phase) % len(w)] for i in range(a, b + 1)]

    def test_orbit_key_equals_periodic_windows(self):
        for orbit in ("0", "01", "0010101", "0001000000000"):
            for m in (0, 1, 3):
                for n in (1, len(orbit), 2 * len(orbit) + 1):
                    want = tuple(periodic_window(orbit, t - m, t + m) for t in range(n))
                    assert codec._orbit_key(orbit, m, n) == want


MIXED_BASE = ([3, 5, 2, 2, 3], dict(K=2, kmax=2, N_cert=180))


@pytest.fixture(scope="module")
def mixed_pipe():
    base, kwargs = MIXED_BASE
    return build_pipeline(Odometer(base), **kwargs)


def _residue_point(odo, r):
    return OdometerPoint(odo, odo.digits_of_residue(r, odo.depth))


def _cells(stream):
    return list(zip(stream.symbols, stream.resolution))


class TestOdometerPeriod:
    """An odometer point is one residue of a finite cyclic group, so at
    every scale its code is one periodic word read from the residue.  The
    reference is the per-window render, codec.render_scales."""

    @pytest.mark.parametrize("config, periods", [
        ("odo_pipe", [32, 64, 128]),
        ("mixed_pipe", [30, 60]),
    ], ids=["dyadic8", "base35223"])
    def test_least_period_is_the_tower_modulus(self, request, config, periods):
        pipe = request.getfixturevalue(config)
        odo = pipe.system
        assert [odo.modulus(tower.depth) for tower in pipe.stack.towers] == periods
        P = periods[-1]
        rendered = codec.render_scales(_residue_point(odo, 0), pipe, (0, 3 * P - 1))
        assert [min_period(_cells(s)) for s in rendered] == periods
        assert [len(s.symbols) for s in codec.odometer_period(pipe)] == [P] * len(periods)

    @pytest.mark.parametrize("config", ["odo_pipe", "mixed_pipe"],
                             ids=["dyadic8", "base35223"])
    def test_every_residue_is_the_period_sliced(self, request, config):
        pipe = request.getfixturevalue(config)
        odo = pipe.system
        a, b = window = (-8, 8)
        top = odo.modulus(odo.depth)
        zero = list(codec.render_scales(_residue_point(odo, 0), pipe, (a, b + top - 1)))
        for r in range(top):
            point = _residue_point(odo, r)
            want = list(codec.render_scales(point, pipe, window))
            assert [_cells(s) for s in want] == \
                [_cells(s)[r:r + b - a + 1] for s in zero]
            assert [s.to_text() for s in pipe.encode_scales(point, window)] == \
                [s.to_text() for s in want]

    def test_period_streams_double_to_the_widest_window(self):
        """An encode reads one slice of its scale's period stream, kept as
        P 2^j positions for the least j with P 2^j >= P - 1 + w, w the
        widest window encoded so far; P = 128 on the dyadic odometer."""
        pipe = build_pipeline(dyadic_odometer(8), K=2, kmax=3, N_cert=128)
        point = _residue_point(pipe.system, 77)
        for width, kept in ((1, 128), (129, 256), (130, 512), (10, 512), (640, 1024)):
            window = (-300, width - 301)
            assert pipe.encode(point, 3, window).to_text() == \
                list(codec.render_scales(point, pipe, window))[2].to_text()
            assert [(len(symbols), len(res), P) for symbols, res, P in pipe.period_tiles] \
                == [(kept, kept, 128)] * 3

    @pytest.mark.parametrize("config", ["odo_pipe", "mixed_pipe"],
                             ids=["dyadic8", "base35223"])
    def test_every_residue_roundtrips(self, request, config):
        pipe = request.getfixturevalue(config)
        odo = pipe.system
        for r in range(odo.modulus(odo.depth)):
            _roundtrip(pipe, _residue_point(odo, r), window=(-10, 10))

    def test_verify_equivariance_can_fail(self):
        """verify_pipeline compares an encode with the shifted point's own
        render, so a period read from the wrong offset fails its record."""
        base, kwargs = MIXED_BASE
        pipe = build_pipeline(Odometer(base), **kwargs)
        pipe.period_tiles = tuple(
            (s.symbols[1:] + s.symbols[:1], s.resolution[1:] + s.resolution[:1], len(s.symbols))
            for s in codec.odometer_period(pipe))
        report = verify_pipeline(pipe, sample_count=2)
        assert [r.ok for r in report.records if (r.module, r.name) == ("codec", "equivariance")] \
            == [False, False]

    def test_a_period_pass_that_raises_renders_each_window(self, monkeypatch):
        """The residue-0 render raises here, so no period is kept, and each
        point's encode is its own render, the residue-0 error included."""
        point_codewords = codec._point_codewords

        def refuse_residue_zero(pipeline, point, l):
            if point.residue == 0:
                raise CapacityError("refused at scale %d" % l, scale=l)
            return point_codewords(pipeline, point, l)

        monkeypatch.setattr(codec, "_point_codewords", refuse_residue_zero)
        base, kwargs = MIXED_BASE
        pipe = build_pipeline(Odometer(base), **kwargs)
        odo = pipe.system
        point = _residue_point(odo, 7)
        assert [s.to_text() for s in pipe.encode_scales(point, (-8, 8))] == \
            [s.to_text() for s in codec.render_scales(point, pipe, (-8, 8))]
        assert pipe.period_tiles == ()
        with pytest.raises(CapacityError, match="refused at scale 1"):
            pipe.encode(_residue_point(odo, 0), 2, (-8, 8))

    def test_a_decode_renders_no_period(self, odo_pipe):
        """A decode reads its stream's codewords, so a fresh pipeline that
        only decodes never renders the period."""
        window = (-10, 10)
        point = _residue_point(odo_pipe.system, 5)
        stream = _roundtrip(odo_pipe, point, window)
        fresh = build_pipeline(dyadic_odometer(8), K=2, kmax=3, N_cert=128)
        res = fresh.decode(stream, 3)
        assert fresh.period_tiles is None
        assert res.itinerary_list(3, window) == \
            itinerary(odo_pipe.system, point, odo_pipe.schedule.m[2], window)

    def test_a_decode_reads_each_codeword_once_per_layer(self, monkeypatch):
        """Counted cost: the period render lays out 3 layers, reads no
        codeword and builds a codebook per regular block, 119; each dyadic
        decode at k=3 lays out 3 layers, and builds one codebook and reads
        one codeword per layer, the first decode included."""
        counts = _count_decode_work(monkeypatch)
        pipe = build_pipeline(dyadic_odometer(8), K=2, kmax=3, N_cert=128)
        R = 200 + pipe.decode_margin()
        streams = [pipe.encode(point, 3, (-R, R))
                   for point in sample_points(pipe.system, 20, seed=3)]
        assert counts == {"codewords": 0, "layers": 3, "codebooks": 119}
        pipe.decode(streams[0], 3)
        assert counts == {"codewords": 3, "layers": 3 + 3, "codebooks": 119 + 3}
        counts.update(codewords=0, layers=0, codebooks=0)
        for stream in streams:
            pipe.decode(stream, 3)
        assert counts == {"codewords": 3 * len(streams), "layers": 3 * len(streams),
                          "codebooks": 3 * len(streams)}

    def test_a_codebook_key_confirms_the_whole_context(self, odo_pipe, monkeypatch):
        """_read_codewords keys a layer's codebooks by block length, filling
        size and the end labels of the coarse itinerary.  Here two scale-3
        blocks of one dyadic stream, each two blocks merged by a deleted
        marker, have length 256 and the same end labels, and differ inside,
        where the second has one scale-2 codeword flipped.  Each gets its
        own codebook, and the second context, which no point has, is
        refused at its block's start with the text it had under the
        whole-context key."""
        R = 200 + odo_pipe.decode_margin()
        stream = odo_pipe.encode(sample_points(odo_pipe.system, 1, seed=3)[0], 3, (-R, R))
        (layout, _), = record_layouts(odo_pipe.decode, stream, 3)[0]
        top = [blk for blk in layout.layer(3).blocks if blk.kind == "regular"]
        A, symbols = stream.a, list(stream.symbols)
        for blk in (top[1], top[3]):
            assert symbols[blk.marker_pos - A] == codec.SYM_MK
            symbols[blk.marker_pos - A] = "1"
        inner = [blk for blk in layout.layer(2).blocks
                 if top[2].start < blk.start and blk.end < top[3].end]
        flip = inner[0].fill_positions[0] - A
        symbols[flip] = "2" if symbols[flip] == "1" else "1"
        contexts = []

        def spy(system, schedule, k, n, coarse):
            contexts.append((k, n, coarse))
            return build_conditional_codebook(system, schedule, k, n, coarse)

        monkeypatch.setattr(codec, "build_conditional_codebook", spy)
        with pytest.raises(MalformedStreamError) as info:
            odo_pipe.decode(SymbolStream(stream.a, stream.b, symbols), 3)
        (_, n1, first), (_, n2, second) = [c for c in contexts if c[0] == 3]
        assert n1 == n2 == 256 and first != second
        assert (first[0], first[-1]) == (second[0], second[-1])
        assert (info.value.scale, info.value.position) == (3, top[2].start) == (3, -588)
        assert str(info.value) == "unknown context %r" % (second,)
        assert hashlib.sha256(str(info.value).encode()).hexdigest()[:16] == "f35fa833086800c0"


def _count_decode_work(monkeypatch):
    """Counts of Codebook.decode and append_layer calls, and of first and
    conditional codebook builds, from here on."""
    counts = {"codewords": 0, "layers": 0, "codebooks": 0}
    decode, append_layer = Codebook.decode, blocks.append_layer

    def counted_decode(cb, word):
        counts["codewords"] += 1
        return decode(cb, word)

    def counted_append(layout, partition):
        counts["layers"] += 1
        return append_layer(layout, partition)

    def counted(build):
        def counted_build(*args):
            counts["codebooks"] += 1
            return build(*args)
        return counted_build

    monkeypatch.setattr(Codebook, "decode", counted_decode)
    monkeypatch.setattr(blocks, "append_layer", counted_append)
    for name in ("build_first_codebook", "build_conditional_codebook"):
        monkeypatch.setattr(codec, name, counted(getattr(codec, name)))
    return counts


def test_a_word_system_decode_reads_as_many_codewords(pipe, monkeypatch):
    """Counted cost on golden K=2, where no two blocks of a layer share a
    codeword and a context: 20 decodes at k=2 read 79 codewords, one per
    block read, lay out 40 layers, and build 70 codebooks, one per length
    or context of a layer read (scale-1 blocks of one length share one)."""
    R = 200 + pipe.decode_margin()
    streams = [pipe.encode(point, 2, (-R, R))
               for point in sample_points(pipe.system, 20, seed=3)]
    counts = _count_decode_work(monkeypatch)
    for stream in streams:
        pipe.decode(stream, 2)
    assert counts == {"codewords": 79, "layers": 2 * len(streams), "codebooks": 70}



def test_an_encode_builds_keys_only_for_coarse_contexts(pipe, monkeypatch):
    """Counted cost: 20 golden K=2 encodes on ±446 build 28 itinerary keys,
    one per coarse context of a scale-2 block; a regular block's codeword
    ranks the point's word and builds none.  Building the block's key,
    spelling it back and checking the spelling took 190."""
    calls = []
    real = codec._window_key

    def counting(w, m, n):
        calls.append(n)
        return real(w, m, n)

    for module in (codec, systems):
        monkeypatch.setattr(module, "_window_key", counting)
    for point in sample_points(golden_mean(), 20, seed=11):
        pipe.encode(point, 2, (-446, 446))
    assert len(calls) == 28


class TestBlockCodewords:
    """A word codebook's codeword of a point's block, ranked from the
    point's word, against the codeword of the block's key; outside the
    domain both paths refuse with the key's text."""

    def _pairs(self, pipe, point):
        """(codebook, block start) of every regular block the point's
        scale-2 context lays out around 0, at both scales."""
        sched, system = pipe.schedule, pipe.system
        layout = pipe.context(point, (-60, 60)).layout
        for l in (1, 2):
            for blk in layout.layer(l).blocks:
                if blk.kind != "regular" or blk.start is None:
                    continue
                n = blk.length()
                if l == 1:
                    yield pipe.first_codebook(n, len(blk.fill_positions)), blk.start
                else:
                    coarse = system.labels(point, blk.start, sched.m[0], n)
                    yield pipe.cond_codebook(2, n, coarse), blk.start

    @pytest.mark.parametrize("m", [(0, 0), (0, 1)])
    def test_equals_the_key_path(self, m):
        pipe = build_pipeline(golden_mean(), K=3, kmax=2, C=0.0, m=m)
        seen = set()
        for point in sample_points(golden_mean(), 8, seed=5):
            for cb, start in self._pairs(pipe, point):
                key = pipe.system.labels(point, start, cb.m, cb.n)
                for pad in (None, cb.length + 2):
                    assert cb.encode_block(point, start, pad) == cb.encode(key, pad)
                seen.add(type(cb).__name__)
        assert seen == {"RankedCodebook", "RefinementCodebook"}

    def test_a_word_outside_the_domain_is_refused_with_its_key(self, pipe):
        good = sample_points(golden_mean(), 1, seed=5)[0]
        bad = Point("0", "0110", "0", 0)      # "11" is forbidden in the golden mean
        for cb in (pipe.first_codebook(12, pipe.schedule.fill1(12)),
                   pipe.cond_codebook(2, 12, golden_mean().labels(good, 0, 0, 12))):
            texts = []
            for encode in (lambda: cb.encode_block(bad, -3),
                           lambda: cb.encode(golden_mean().labels(bad, -3, cb.m, 12))):
                with pytest.raises(MalformedStreamError, match="not in codebook domain") as err:
                    encode()
                texts.append(str(err.value))
            assert texts[0] == texts[1]


def _schedule(m, mp, K=2, budget=10 ** 6):
    """The schedule fields a conditional or identification codebook reads."""
    return SimpleNamespace(m=(m, mp), K=K, budget=lambda n, k: budget)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (MalformedStreamError, CapacityError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _assert_matches_table(cb, keys, foreign, K=2):
    """A counted codebook gives the codewords, decodes and domain, image and
    padding errors of the sorted key table."""
    table = Codebook(cb.scale, cb.n, code_length_needed(len(keys), K) if cb.scale > 1
                     else cb.length, keys, K, context=cb.context)
    assert (len(cb), cb.length) == (len(table), table.length)
    words = ["3" * cb.length, "1" * max(cb.length - 1, 0)]
    if K ** cb.length <= 64:
        words += [kary_word(i, cb.length, K) for i in range(K ** cb.length)]
    else:
        words += [kary_word(i, cb.length, K) for i in (0, len(keys) // 3, len(keys) - 1,
                                                       len(keys)) if i < K ** cb.length]
    for word in words:
        assert _outcome(cb.decode, word) == _outcome(table.decode, word)
    for key in list(keys) + list(foreign):
        assert _outcome(cb.encode, key) == _outcome(table.encode, key)
    assert _outcome(cb.encode, keys[0], cb.length - 1) == \
        _outcome(table.encode, keys[0], cb.length - 1)



class TestCountedCodebooksAgainstReference:
    """Every codebook ranks on counts; the key enumerations it replaced are
    kept above as the reference."""

    SYSTEMS = [golden_mean(), full_shift(), Sft(3, forbidden=("22", "201"))]

    @pytest.mark.parametrize("system", SYSTEMS, ids=["golden", "full", "three-letter"])
    @pytest.mark.parametrize("m, mp, n", [(0, 0, 4), (0, 1, 6), (0, 2, 5), (1, 2, 4),
                                          (1, 1, 3), (0, 1, 2)])
    def test_sft_refinements(self, system, m, mp, n):
        coarse_keys = itinerary_keys(system, m, n)
        fine_keys = itinerary_keys(system, mp, n)
        sched = _schedule(m, mp)
        for coarse in coarse_keys:
            keys = refinement_keys(system, m, mp, n, coarse)
            cb = build_conditional_codebook(system, sched, 2, n, coarse)
            _assert_matches_table(cb, keys, fine_keys[:3] + fine_keys[-3:] + [coarse])
            length = code_length_needed(len(keys), 2)
            if mp != m and length > 0:
                with pytest.raises(CapacityError, match="conditional code needs %d letters, "
                                   "budget %d" % (length, length - 1)):
                    build_conditional_codebook(system, _schedule(m, mp, budget=length - 1),
                                               2, n, coarse)
        bad = ("2" * (2 * m + 1),) * n if system.alphabet_size < 3 else \
            (system.letters[-1] * (2 * m + 1),) * n
        if not system.is_admissible(bad[0] + "".join(lab[-1] for lab in bad[1:])):
            assert refinement_keys(system, m, mp, n, bad) == []
            with pytest.raises(MalformedStreamError, match="unknown context"):
                build_conditional_codebook(system, sched, 2, n, bad)

    @pytest.mark.parametrize("odo", TestOdometerKeys.ODOMETERS, ids=["dyadic8", "base325"])
    def test_odometer_keys_at_every_depth(self, odo):
        for m in range(odo.depth):
            for n in (1, 5):
                keys = itinerary_keys(odo, m, n)
                sched = SimpleNamespace(n=(1,), m=(m,), K=2, fill1=None)
                cb = build_first_codebook(odo, sched, n, code_length_needed(len(keys), 2))
                foreign = [keys[0][:-1], keys[0][1:] + keys[0][:1], (keys[0][0] + (0,),) * n]
                _assert_matches_table(cb, keys, [k for k in foreign if k not in keys])
                for mp in range(m, odo.depth):
                    fine_keys = itinerary_keys(odo, mp, n)
                    for coarse in keys[:2] + keys[-2:]:
                        want = refinement_keys(odo, m, mp, n, coarse)
                        cb = build_conditional_codebook(odo, _schedule(m, mp), 2, n, coarse)
                        _assert_matches_table(cb, want, fine_keys[:2] + fine_keys[-2:])
                    # a label one digit too long, or a run that stands still;
                    # the reference takes any context when mp == m
                    bad = ((keys[0][0] + (0,),) if n == 1 else (keys[0][0],) * n)
                    if mp > m:
                        assert refinement_keys(odo, m, mp, n, bad) == []
                    with pytest.raises(MalformedStreamError, match="unknown context"):
                        build_conditional_codebook(odo, _schedule(m, mp), 2, n, bad)

    def test_context_beyond_enumeration(self):
        """Golden m = (0, 1), n = 57: the reference would list the 59-words,
        the counted codebook multiplies L * R."""
        system, sched = golden_mean(), _schedule(0, 1)
        with pytest.raises(EnumerationBudgetError):
            refinement_keys(system, 0, 1, 57, tuple("0" * 57))
        for u, left, right in (("0" * 57, 2, 2), ("1" + "0" * 56, 1, 2),
                               ("0" * 56 + "1", 2, 1), ("10" * 28 + "1", 1, 1)):
            cb = build_conditional_codebook(system, sched, 2, 57, tuple(u))
            assert len(cb) == left * right
            for i in range(len(cb)):
                key = cb.decode(kary_word(i, cb.length, 2))
                word = key[0] + "".join(lab[-1] for lab in key[1:])
                assert word[1:-1] == u and system.is_admissible(word)
                assert cb.encode(key) == kary_word(i, cb.length, 2)

    @pytest.mark.parametrize("system", [golden_mean(), Sft(3, forbidden=("22", "201"))],
                             ids=["golden", "three-letter"])
    def test_identification_is_one_key(self, system):
        from shiftembed.codec import build_identification_codebook
        from shiftembed.words import necklace, periodic_window
        for mp in range(3):
            sched = _schedule(0, mp)
            for p in range(1, 9):
                period_words = filtered_least_period_words(system, p)
                reference = {}
                for v in period_words:
                    fine = tuple(periodic_window(v, t - mp, t + mp) for t in range(p))
                    reference.setdefault(fine, set()).add(necklace(v))
                for w in system.words(p):
                    fine = tuple(periodic_window(w, t - mp, t + mp) for t in range(p))
                    want = sorted(reference.get(fine, ()))
                    cb = build_identification_codebook(system, sched, 2, p, fine)
                    assert (len(cb), cb.length) == (len(want), 0)
                    assert want == ([necklace(w)] if w in period_words else [])
                    if want:
                        assert cb.encode(want[0]) == "" and cb.decode("") == want[0]
                    else:
                        with pytest.raises(MalformedStreamError, match="not in codebook"):
                            cb.encode(necklace(w))


class TestGrowingRadius:
    """m = (0, 1): a block's refinements are counted, never listed."""

    @pytest.fixture(scope="class")
    def grow3(self):
        return build_pipeline(golden_mean(), K=3, kmax=2, C=0.0, m=(0, 1))

    def test_no_encode_hits_the_enumeration_budget(self, grow3):
        # every point round-trips or meets the capacity clamp that the strict
        # xfail below pins; any other error, EnumerationBudgetError among
        # them, fails the test
        for point in sample_points(golden_mean(), 30, seed=3):
            try:
                _roundtrip(grow3, point, window=(-100, 100))
            except CapacityError:
                pass

    @pytest.mark.xfail(strict=True, raises=CapacityError, reason=(
        "the regular scale-2 block [-4, 15) reaches into the right-unbounded "
        "scale-1 stretch [5, inf), which eats its slots down to one; the "
        "block's conditional code needs two letters, so encode raises "
        "'codeword of length 2 cannot fit 1 slots'"))
    def test_roundtrip_block_eaten_by_a_stretch(self, grow3):
        _roundtrip(grow3, Point("010", "10010001010010010", "10000", -17), window=(-60, 60))


class TestSharedLabels:
    """With m_k = m_{k-1} a scale-k singular region's labels are the
    scale-(k-1) labels on its span, undecoded positions included."""

    @pytest.mark.parametrize("K", [2, 3])
    def test_singular_regions_copy_the_previous_scale(self, K):
        pipe = build_pipeline(golden_mean(), K=K, kmax=2, C=0.0, m=(0, 0))
        margin = pipe.decode_margin()
        window = (-200 - margin, 200 + margin)
        regions = known = 0
        errors = []
        for point in sample_points(golden_mean(), 20, seed=3) + bounded_stretch_points():
            stream = pipe.encode(point, 2, window)
            seen, error = record_layouts(pipe.decode, stream, 2)
            if error:
                errors.append(error)
                continue
            res = pipe.decode(stream, 2)
            labels1, labels2 = res.itineraries[1], res.itineraries[2]
            assert len(labels1) == len(labels2) == stream.b - stream.a + 1
            (layout, _), = seen
            for blk in layout.layer(2).blocks:
                if blk.kind != "singular":
                    continue
                s = 0 if blk.start is None else blk.start - stream.a
                e = len(labels2) if blk.end is None else blk.end - stream.a
                assert labels2[s:e] == labels1[s:e]
                regions += 1
                known += any(lab is not None for lab in labels2[s:e])
        assert regions >= 10 and known == regions
        # the one refusal is test_roundtrip_bounded_stretch_of_period_7's
        assert errors == ([] if K == 2 else
                          ["MalformedStreamError: codeword '1o2123' not in codebook image"])

    @pytest.mark.xfail(strict=True, raises=MalformedStreamError, reason=(
        "golden K=3: the scale-2 stream of a point whose core has least "
        "period 7, a bounded scale-1 stretch, holds a free slot among the "
        "filling slots of a scale-1 block that the decoder lays out, so "
        "decode raises \"codeword '1o2123' not in codebook image\"; the "
        "scale-1 stream of the point round-trips"))
    def test_roundtrip_bounded_stretch_of_period_7(self, pipe3):
        _roundtrip(pipe3, bounded_stretch_points()[4])


@pytest.mark.parametrize("K", [2, 3])
def test_top_scale_stream_k_equals_the_input(K):
    """A top-scale decode has no deeper scale to revert: its pi_k stream is
    the input on the certified window."""
    pipe = build_pipeline(golden_mean(), K=K, kmax=2, C=0.0, m=(0, 0))
    margin = pipe.decode_margin()
    for point in sample_points(golden_mean(), 25, seed=3):
        stream = pipe.encode(point, 2, (-100 - margin, 100 + margin))
        res = pipe.decode(stream, 2)
        lo, hi = res.certified[2]
        assert restrict(res.stream_k, lo, hi).symbols == restrict(stream, lo, hi).symbols


def covered_range_reference(parts, within):
    """The set-based merge `_covered_range` replaces: every covered
    position, sorted into runs."""
    pts = set()
    for lo, hi in parts:
        pts.update(range(lo, hi + 1))
    runs = []
    for t in sorted(pts):
        if runs and t == runs[-1][1] + 1:
            runs[-1][1] = t
        else:
            runs.append([t, t])
    if not runs:
        return None
    lo0, hi0 = within
    best = max(runs, key=lambda r: min(r[1], hi0) - max(r[0], lo0))
    return (best[0], best[1])


@pytest.mark.parametrize("parts, within, want", [
    ([], (0, 10), None),
    ([(0, 4), (5, 9)], (0, 20), (0, 9)),                 # adjacent
    ([(3, 8), (0, 5), (6, 7)], (0, 20), (0, 8)),         # overlapping, unsorted
    ([(0, 4), (10, 14)], (0, 20), (0, 4)),               # disjoint tie: the first
    ([(0, 2), (10, 14)], (0, 20), (10, 14)),
    ([(-30, -20), (-5, 5), (50, 90)], (-10, 10), (-5, 5)),
    ([(0, 9), (2, 3), (10, 10), (12, 15)], (12, 30), (12, 15)),
], ids=["empty", "adjacent", "overlapping", "tie", "larger", "inside", "nested"])
def test_covered_range_merges_parts(parts, within, want):
    assert codec._covered_range(parts, within) == want
    assert covered_range_reference(parts, within) == want


@settings(max_examples=300, deadline=None)
@given(spans=st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 12)), max_size=8),
       within=st.tuples(st.integers(-50, 0), st.integers(0, 50)))
def test_covered_range_equals_set_merge(spans, within):
    parts = [(lo, lo + n) for lo, n in spans]
    assert codec._covered_range(parts, within) == covered_range_reference(parts, within)

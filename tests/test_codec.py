import pytest

from shiftembed.codec import (Codebook, RankedCodebook, SymbolStream,
                              build_first_codebook, build_conditional_codebook,
                              build_periodic_code, itinerary_keys)
from shiftembed.errors import (CapacityError, MalformedStreamError,
                               ScheduleError, WindowError)
from shiftembed.pipeline import build_pipeline, sample_points
from shiftembed.systems import (Point, Sft, dyadic_odometer, enumerate_periodic,
                                golden_mean, itinerary)
from shiftembed.words import (code_length_needed, forbidden_shape_count_bound,
                              has_short_period_prefix, kary_word,
                              repetition_prefix)


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
        words = {cb.encode(k) for k in cb.encode_map}
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
        table = Codebook(1, 9, cb.length, itinerary_keys(golden_mean(), 0, 9), 2)
        assert cb.encode_map == table.encode_map
        assert cb.decode_map == table.decode_map

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
        assert code.verify_injective()
        total_points = sum(len(w) for w in code.orbit_code.values())
        assert len(code.prefix_table) == total_points

    def test_shape_condition_beyond_sqrt(self, pipe):
        code = pipe.periodic_code
        for orbit, w in code.orbit_code.items():
            if len(w) > 3:  # sqrt(9)
                assert not has_short_period_prefix(w, 9, len(w))

    def test_count_bound_numeric(self):
        for n in range(1, 17):
            total, bound = forbidden_shape_count_bound(n, 2)
            assert total < bound

    def test_n1_sixteen_injective(self):
        code = build_periodic_code(golden_mean(), 2, 16)
        assert code.verify_injective()

    def test_repetition_prefix(self):
        assert repetition_prefix("0001", 9) == "000100010"


class TestStreams:
    def test_serialization_roundtrip(self, pipe):
        p = Point("10", "00100", "001", -2)
        s = pipe.encode(p, 2, (-25, 25))
        text = s.to_text()
        back = SymbolStream.from_text(text)
        assert back == s
        assert back.to_text() == text

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
            for k in (1, 2):
                s0 = pipe.encode(p, k, (-40, 40))
                s1 = pipe.encode(p.shifted(1), k, (-41, 39))
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

    @pytest.mark.xfail(strict=True, raises=MalformedStreamError, reason=(
        "known encoder defect: the scale-2 return partition lays out a regular "
        "block [-2, 7) of length 9 < n_2 = 19 inside the scale-1 singular block "
        "[-12, 7), so decode rightly rejects the stream with 'scale-2 block "
        "[-2, 7) has impossible length'"))
    def test_roundtrip_regular_block_inside_singular(self, pipe):
        margin = pipe.decode_margin()
        p = Point("10010", "101010010101010010010000010001000100100000", "010", -7)
        stream = pipe.encode(p, 2, (-200 - margin, 200 + margin))
        res = pipe.decode(stream, 2)
        for l in (1, 2):
            want = itinerary(golden_mean(), p, pipe.schedule.m[l - 1], (-200, 200))
            assert res.itinerary_list(l, (-200, 200)) == want

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

    def test_pi_k_form_reverts_deeper_scales(self, pipe):
        margin = pipe.decode_margin()
        p = Point("10", "00100", "001", -2)
        s2 = pipe.encode(p, 2, (-margin, margin))
        res = pipe.decode(s2, 1)
        s1 = pipe.encode(p, 1, (-margin, margin))
        a, b = -40, 40
        got = res.stream_k.restrict(a, b)
        want = s1.restrict(a, b)
        assert got.symbols == want.symbols


class TestConvergence:
    def test_dN_bound_scale1(self, pipe):
        from shiftembed.metrics import stream_dN
        N = pipe.schedule.n[0] ** 2
        alpha = pipe.schedule.alpha_float
        worst = 0
        for p in sample_points(golden_mean(), 20, seed=41):
            s1 = pipe.encode(p, 1, (-4 * N, 4 * N))
            sK = pipe.encode_limit(p, (-4 * N, 4 * N))
            worst = max(worst, stream_dN(s1, sK, N))
        assert worst <= 3 * alpha / 2

    def test_coordinate_changes_at_most_twice(self, pipe):
        for p in sample_points(golden_mean(), 12, seed=43):
            s1 = pipe.encode(p, 1, (-60, 60))
            s2 = pipe.encode(p, 2, (-60, 60))
            changes = sum(1 for a, b in zip(s1.symbols, s2.symbols) if a != b)
            per_coord = [int(a != b) for a, b in zip(s1.symbols, s2.symbols)]
            assert max(per_coord) <= 2

    def test_periodic_point_stream_periodic_same_least_period(self, pipe):
        pts, _ = enumerate_periodic(golden_mean(), 4)
        for p in pts:
            s = pipe.encode_limit(p, (-40, 40))
            word = "".join(s.symbols)
            from shiftembed.words import min_period
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
        w = golden_mean().least_period_words(12)[0]
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
            s1 = pipe.encode(p, 1, (-L, L))
            s2 = pipe.encode(p, 2, (-L, L))
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

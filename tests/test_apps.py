"""Tests for the benchmark applications and golden models."""

import pytest

from repro.apps import build_adpcm, build_fir, build_gsm, build_synthetic
from repro.apps.base import Application, lcg, lcg_samples
from repro.apps.golden import (
    INDEX_TABLE,
    STEP_TABLE,
    adpcm_decode_reference,
    adpcm_encode_reference,
    autocorrelation_reference,
    fir_reference,
    hann_window_reference,
    ltp_search_reference,
    sat16,
    wrap32,
)
from repro.bench import run_and_verify
from repro.support.errors import ReproError


class TestGoldenPrimitives:
    def test_wrap32(self):
        assert wrap32(0x7FFFFFFF) == 0x7FFFFFFF
        assert wrap32(0x80000000) == -0x80000000
        assert wrap32(-0x80000001) == 0x7FFFFFFF

    def test_sat16(self):
        assert sat16(40000) == 32767
        assert sat16(-40000) == -32768
        assert sat16(5) == 5

    def test_fir_by_hand(self):
        # y[n] = sum h[k] x[n-k]: x=[1,2], h=[3,4] -> y=[3, 10]
        assert fir_reference([1, 2], [3, 4]) == [3, 10]

    def test_fir_wraps(self):
        big = 0x7FFFFFFF
        result = fir_reference([2], [big])
        assert result == [wrap32(2 * big)]

    def test_autocorrelation_by_hand(self):
        acf = autocorrelation_reference([1, 2, 3], 2)
        assert acf == [1 + 4 + 9, 1 * 2 + 2 * 3, 1 * 3]

    def test_ltp_prefers_smallest_lag_on_tie(self):
        signal = [0] * 10 + [1, 1]
        lag, score = ltp_search_reference(signal, 10, 2, 1, 5)
        assert lag == 1 or score > 0  # deterministic tie handling

    def test_windowing(self):
        assert hann_window_reference([32768], [16384]) == [
            (32768 * 16384) >> 15
        ]


class TestGoldenAdpcm:
    def test_tables_shapes(self):
        assert len(STEP_TABLE) == 89
        assert len(INDEX_TABLE) == 16
        assert STEP_TABLE[0] == 7
        assert STEP_TABLE[-1] == 32767

    def test_codes_are_four_bit(self):
        codes, _ = adpcm_encode_reference(lcg_samples(3, 200, 20000))
        assert all(0 <= code <= 15 for code in codes)

    def test_reconstruction_in_16_bit_range(self):
        _, recon = adpcm_encode_reference(lcg_samples(4, 200, 30000))
        assert all(-32768 <= value <= 32767 for value in recon)

    def test_decoder_mirrors_encoder(self):
        samples = lcg_samples(5, 100, 10000)
        codes, recon = adpcm_encode_reference(samples)
        assert adpcm_decode_reference(codes) == recon

    def test_silence_encodes_quietly(self):
        codes, recon = adpcm_encode_reference([0] * 16)
        assert all(value in (0, 8) for value in codes)

    def test_tracks_slow_ramp(self):
        samples = list(range(0, 1600, 100))
        _, recon = adpcm_encode_reference(samples)
        # The predictor should end near the final sample value.
        assert abs(recon[-1] - samples[-1]) < 400


class TestDeterminism:
    def test_lcg_is_deterministic(self):
        a = [lcg(42)() for _ in range(5)]
        b = [lcg(42)() for _ in range(5)]
        assert a == b

    def test_lcg_samples_bounded(self):
        values = lcg_samples(7, 1000, 123)
        assert all(-123 <= v <= 123 for v in values)

    def test_apps_are_reproducible(self):
        one = build_fir("c62x", taps=4, samples=8, seed=9)
        two = build_fir("c62x", taps=4, samples=8, seed=9)
        assert one.source == two.source
        assert one.expected == two.expected

    def test_seed_changes_program(self):
        one = build_synthetic("c62x", 128, 0.1, 4, seed=1)
        two = build_synthetic("c62x", 128, 0.1, 4, seed=2)
        assert one.source != two.source


class TestApplicationContainer:
    def test_expect_and_verify(self, testmodel):
        from repro.machine.state import ProcessorState

        app = Application(name="x", model_name="testmodel", source="")
        app.expect("dmem", 2, [5, 6])
        state = ProcessorState(testmodel)
        state.dmem[2] = 5
        state.dmem[3] = 6
        assert app.verify(state)

    def test_verify_reports_mismatches(self, testmodel):
        from repro.machine.state import ProcessorState

        app = Application(name="x", model_name="testmodel", source="")
        app.expect("dmem", 0, [1])
        state = ProcessorState(testmodel)
        with pytest.raises(ReproError) as exc_info:
            app.verify(state)
        assert "dmem[0]" in str(exc_info.value)


class TestFirApplications:
    @pytest.mark.parametrize("model_name", ["tinydsp", "c54x", "c62x"])
    def test_fir_verifies_on_compiled(self, model_name):
        app = build_fir(model_name, taps=4, samples=12)
        run_and_verify(app, "compiled")

    def test_fir_layout_overflow_rejected(self):
        with pytest.raises(ReproError):
            build_fir("c54x", taps=4, samples=200)

    def test_unknown_model_rejected(self):
        with pytest.raises(ReproError):
            build_fir("pdp11")


class TestAdpcmApplication:
    def test_verifies_on_compiled(self):
        app = build_adpcm(samples=24)
        simulator = run_and_verify(app, "compiled")
        # Encoder and decoder both ran.
        assert simulator.state.dmem[6144] != 0 or \
            simulator.state.dmem[6145] != 0

    def test_only_c62x_supported(self):
        with pytest.raises(ReproError):
            build_adpcm(model_name="tinydsp")

    def test_layout_overflow_rejected(self):
        with pytest.raises(ReproError, match="layout overflow"):
            build_adpcm(samples=1921)

    def test_largest_layout_keeps_regions_apart(self):
        from repro.apps.adpcm import IN_BASE

        samples = 1920
        outputs = build_adpcm(samples=samples).expected["dmem"]
        # Three output regions of one word per sample, none of them
        # sharing an address with another or with the inputs.
        assert len(outputs) == 3 * samples
        assert min(outputs) >= IN_BASE + samples


class TestGsmApplication:
    def test_verifies_on_compiled(self):
        app = build_gsm(target_words=700)
        run_and_verify(app, "compiled")

    def test_target_size_respected(self, c62x_tools):
        app = build_gsm(target_words=1500)
        program = app.assemble(c62x_tools)
        words = program.word_count("pmem")
        assert 1400 <= words <= 1500

    def test_only_c62x_supported(self):
        with pytest.raises(ReproError):
            build_gsm(model_name="c54x")


class TestSyntheticApplication:
    @pytest.mark.parametrize("model_name,density", [
        ("tinydsp", 0.0), ("tinydsp", 0.3), ("c62x", 0.0), ("c62x", 0.2),
    ])
    def test_checksum_verifies(self, model_name, density):
        app = build_synthetic(model_name, target_words=128,
                              branch_density=density, loop_iterations=3)
        run_and_verify(app, "compiled")

    def test_density_out_of_range_rejected(self):
        with pytest.raises(ReproError):
            build_synthetic("c62x", 100, branch_density=0.9)

    def test_unsupported_model_rejected(self):
        with pytest.raises(ReproError):
            build_synthetic("c54x", 100)

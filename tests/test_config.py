"""Tests for the hardware configuration bundles."""

import dataclasses
import math

import numpy as np
import pytest

from repro.amc.config import (
    ConverterConfig,
    HardwareConfig,
    OpAmpConfig,
    SampleHoldConfig,
)
from repro.core.backend import BACKEND_NAMES, get_backend
from repro.crossbar.parasitics import ParasiticConfig
from repro.devices.variations import NoVariation, RelativeGaussianVariation
from repro.errors import ValidationError
from repro.serve.requests import SolveRequest
from repro.serve.service import ServiceConfig, resolve_request


class TestOpAmpConfig:
    def test_defaults_valid(self):
        cfg = OpAmpConfig()
        assert cfg.open_loop_gain > 0
        assert not cfg.is_ideal

    def test_infinite_gain_allowed(self):
        cfg = OpAmpConfig(open_loop_gain=math.inf, input_offset_sigma_v=0.0)
        assert cfg.is_ideal

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValidationError):
            OpAmpConfig(open_loop_gain=0.0)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            OpAmpConfig(input_offset_sigma_v=-1e-3)

    def test_static_power_eq7(self):
        cfg = OpAmpConfig(supply_voltage=1.2, quiescent_current=11e-6)
        assert cfg.static_power == pytest.approx(1.2 * 11e-6)


class TestConverterConfig:
    def test_ideal(self):
        cfg = ConverterConfig.ideal()
        assert cfg.dac_bits is None and cfg.adc_bits is None

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            ConverterConfig(dac_bits=0)

    def test_bad_full_scale(self):
        with pytest.raises(ValidationError):
            ConverterConfig(v_fs=0.0)


class TestHardwareFactories:
    def test_ideal_is_ideal(self):
        cfg = HardwareConfig.ideal()
        assert cfg.opamp.is_ideal
        assert isinstance(cfg.programming.variation, NoVariation)
        assert cfg.parasitics.is_ideal

    def test_paper_ideal_mapping_has_no_variation(self):
        cfg = HardwareConfig.paper_ideal_mapping()
        assert isinstance(cfg.programming.variation, NoVariation)
        assert not cfg.opamp.is_ideal  # finite gain + offsets present

    def test_paper_variation(self):
        cfg = HardwareConfig.paper_variation()
        assert isinstance(cfg.programming.variation, RelativeGaussianVariation)
        assert cfg.programming.variation.sigma_rel == 0.05

    def test_paper_interconnect(self):
        cfg = HardwareConfig.paper_interconnect()
        assert cfg.parasitics.r_wire == 1.0
        assert not cfg.parasitics.is_ideal

    def test_paper_interconnect_exact_fidelity(self):
        cfg = HardwareConfig.paper_interconnect(fidelity="exact")
        assert cfg.parasitics.fidelity == "exact"

    def test_with_replaces_fields(self):
        cfg = HardwareConfig.ideal().with_(use_mna=True)
        assert cfg.use_mna
        assert not HardwareConfig.ideal().use_mna

    def test_with_parasitics(self):
        cfg = HardwareConfig.ideal().with_(parasitics=ParasiticConfig(r_wire=2.0))
        assert cfg.parasitics.r_wire == 2.0

    def test_bad_g_unit(self):
        with pytest.raises(ValidationError):
            HardwareConfig(g_unit=-1.0)


class TestSampleHoldConfig:
    def test_defaults_transparent(self):
        cfg = SampleHoldConfig()
        assert cfg.gain_error == 0.0
        assert cfg.noise_sigma_v == 0.0


class TestCacheKey:
    """Content digests for the repro.serve prepared-solver cache."""

    def _variants(self):
        from repro.crossbar.array import ProgrammingConfig
        from repro.devices.models import DeviceSpec
        from repro.devices.faults import StuckFaultModel
        from repro.devices.variations import (
            GaussianVariation,
            LognormalVariation,
            RelativeGaussianVariation,
        )

        return [
            HardwareConfig.ideal(),
            HardwareConfig.paper_ideal_mapping(),
            HardwareConfig.paper_variation(),
            HardwareConfig.paper_variation(0.04),
            HardwareConfig.paper_interconnect(),
            HardwareConfig.paper_interconnect(r_wire=2.0),
            HardwareConfig.paper_interconnect(fidelity="exact"),
            HardwareConfig.paper_variation().with_(use_mna=True),
            HardwareConfig.paper_variation().with_(g_unit=5e-5),
            HardwareConfig(opamp=OpAmpConfig(open_loop_gain=1e5)),
            HardwareConfig(opamp=OpAmpConfig(v_sat=1.5)),
            HardwareConfig(opamp=OpAmpConfig(output_noise_sigma_v=1e-4)),
            HardwareConfig(converters=ConverterConfig(dac_bits=8)),
            HardwareConfig(converters=ConverterConfig(adc_bits=8)),
            HardwareConfig(converters=ConverterConfig(v_fs=2.0)),
            HardwareConfig(sample_hold=SampleHoldConfig(gain_error=1e-3)),
            HardwareConfig(
                programming=ProgrammingConfig(variation=GaussianVariation(5e-6))
            ),
            HardwareConfig(
                programming=ProgrammingConfig(variation=LognormalVariation(0.05))
            ),
            HardwareConfig(
                programming=ProgrammingConfig(
                    variation=RelativeGaussianVariation(0.05), quantize=True
                )
            ),
            HardwareConfig(
                programming=ProgrammingConfig(
                    variation=RelativeGaussianVariation(0.05), use_write_verify=True
                )
            ),
            HardwareConfig(
                programming=ProgrammingConfig(faults=StuckFaultModel(p_stuck_on=0.01))
            ),
            HardwareConfig(
                programming=ProgrammingConfig(device=DeviceSpec(g_min=2e-6))
            ),
        ]

    def test_distinct_configs_never_collide(self):
        variants = self._variants()
        keys = [cfg.cache_key() for cfg in variants]
        assert len(set(keys)) == len(variants)

    def test_equal_configs_always_hit(self):
        for cfg in self._variants():
            rebuilt = cfg.with_()
            assert rebuilt == cfg
            assert rebuilt.cache_key() == cfg.cache_key()

    def test_equal_variation_instances_share_keys(self):
        a = HardwareConfig.paper_variation(0.05)
        b = HardwareConfig.paper_variation(0.05)
        assert a.programming.variation is not b.programming.variation
        assert a.cache_key() == b.cache_key()

    def test_key_is_stable_hex(self):
        key = HardwareConfig.ideal().cache_key()
        assert isinstance(key, str)
        assert len(key) == 64
        int(key, 16)
        assert key == HardwareConfig.ideal().cache_key()

    #: ``paper_variation()``'s key per tier, as committed before aliases
    #: were folded into their tier's name.
    TIER_KEYS = {
        "numpy": "0f1d7567b7ec4036e748c61d0547154b5a9a518d151fe755af93de8e8aeb2b31",
        "numpy-f32": "c256a0e96648951a17c2e5ba3836f228aa84328193d9ec8d3ff1c45344a45e2b",
    }

    def test_default_key_is_pinned(self):
        assert HardwareConfig.paper_variation().cache_key() == self.TIER_KEYS["numpy"]

    @pytest.mark.parametrize("alias", BACKEND_NAMES)
    def test_every_alias_keys_as_its_tier(self, alias):
        """An alias programs, warms and factors the same cache entry as its tier."""
        tier = get_backend(alias).name
        base = HardwareConfig.paper_variation()
        config = base.with_(backend=alias)
        assert config.backend == tier
        assert config == base.with_(backend=tier)
        assert config.cache_key() == self.TIER_KEYS[tier]
        request = SolveRequest(np.eye(4), np.ones(4), hardware=config)
        canonical = dataclasses.replace(request, hardware=base.with_(backend=tier))
        service = ServiceConfig()
        assert resolve_request(request, service)[0] == resolve_request(canonical, service)[0]

"""Golden values of the sweep presets fig5, fig6 and fig8.

tests/golden/presets.json holds every 10th point of each curve plus its
`failures` and `validity.*` metadata, frozen by scripts/freeze_golden.py
before the sweep pipeline was restructured. Values must agree at rtol
1e-12, with an absolute floor of 1e-12 times the curve's peak (round-off
of the Fourier synthesis sits below it).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from mirror_dce.experiments import read_spectrum_datasets, reproduce

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "presets.json").read_text(encoding="utf-8")
)
RTOL = 1e-12
FLOOR_OF_PEAK = 1e-12


@pytest.mark.parametrize("figure", sorted(GOLDEN["figures"]))
def test_sweep_preset_matches_golden(figure, reference_circuit, tmp_path):
    step = GOLDEN["step"]
    expected_files = GOLDEN["figures"][figure]
    paths = reproduce(figure, tmp_path, reference_circuit)
    assert sorted(p.name for p in paths) == sorted(expected_files)
    for path in paths:
        expected = expected_files[path.name]
        curves = {
            f"{ds.metadata['trajectory']}@{ds.metadata['temperature']}": ds
            for ds in read_spectrum_datasets(path)
        }
        assert sorted(curves) == sorted(expected)
        for cid, ds in curves.items():
            want = expected[cid]
            np.testing.assert_array_equal(ds.x[::step], want["x"])
            ref = np.asarray(want["n_out"], dtype=float)
            np.testing.assert_array_equal(np.isnan(ds.n_out[::step]), np.isnan(ref))
            peak = float(np.nanmax(np.abs(ref))) if np.any(np.isfinite(ref)) else 0.0
            np.testing.assert_allclose(
                ds.n_out[::step], ref, rtol=RTOL, atol=FLOOR_OF_PEAK * peak,
                err_msg=f"{path.name} {cid}",
            )
            kept = {
                k: v for k, v in ds.metadata.items()
                if k == "failures" or k.startswith("validity.")
            }
            assert kept == want["metadata"], f"{path.name} {cid}"

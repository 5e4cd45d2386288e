import csv
import math

import numpy as np
import pytest


def reference_draw(params, rng, size):
    """The law's per-unit draw as it was written before the oracle cell
    table: (x, z, a, y) with z an int array and a a float array."""
    u = rng.standard_normal(size)
    x = rng.standard_normal(size)
    z = (rng.random(size) < 0.5).astype(int)
    a = (params.pi * z * (x > 0) + u > 0).astype(float)
    y = 2.0 * np.sign(u) + params.treatment_shift * a
    return x, z, a, y


def reference_oracle_scores(params, rng, size):
    """The per-unit oracle score formula that the cell table replaced,
    kept as the reference: (psi_a, psi_b, r1 - r0, g1 - g0)."""
    x, z, a, y = reference_draw(params, rng, size)
    pos = x > 0
    phi_pi = 0.5 * math.erfc(-params.pi / math.sqrt(2.0))
    r1 = np.where(pos, phi_pi, 0.5)
    r0 = 0.5
    g1 = params.treatment_shift * r1
    g0 = params.treatment_shift * r0
    sign = 2.0 * z - 1.0
    r_z = np.where(z == 1, r1, r0)
    g_z = np.where(z == 1, g1, g0)
    psi_a = sign / 0.5 * (a - r_z) + r1 - r0
    psi_b = sign / 0.5 * (y - g_z) + g1 - g0
    return psi_a, psi_b, r1 - r0, g1 - g0


@pytest.fixture(scope="session")
def reference_oracle():
    return reference_oracle_scores


@pytest.fixture(scope="session")
def reference_dgp():
    return reference_draw


# The per-line CSV loops that the block writer replaced, kept as the
# references its output must equal byte for byte.


def reference_write_draws(handle, draws):
    """weakiv-limit's draw rows: one write per draw."""
    for v in draws:
        handle.write(f"{float(v)!r}\n")


def reference_write_scores(handle, psi_a, psi_b):
    """scan --dump-scores's rows: one write per unit."""
    for va, vb in zip(psi_a, psi_b):
        handle.write(f"{float(va)!r},{float(vb)!r}\n")


def reference_write_csv(data, path, schema):
    """write_csv: one csv.writer row per unit, header included."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([schema.outcome, schema.treatment, schema.instrument, *schema.covariates])
        for i in range(data.n):
            writer.writerow(
                [
                    repr(float(data.y[i])),
                    int(data.a[i]),
                    int(data.z[i]),
                    *(repr(float(v)) for v in data.x[i]),
                ]
            )


@pytest.fixture(scope="session")
def reference_writers():
    return reference_write_draws, reference_write_scores, reference_write_csv

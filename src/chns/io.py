"""CSV and legacy VTK writers for run artifacts."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .mesh import Mesh

if TYPE_CHECKING:  # record types only; io does not depend on the experiments
    from .experiments import EnergyTrace, ErrorRecord

ENERGY_HEADER = "step,time,modified_energy,dissipation,identity_residual,discriminant,chosen_root_ratio"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.12g}"


def _write_rate_table(path: str, records: list[ErrorRecord], columns: list[tuple[str, str]]):
    lines = ["h,tau," + ",".join(f"{name},rate" for name, _ in columns)]
    for i, rec in enumerate(records):
        cells = [_fmt(rec.h), _fmt(rec.tau)]
        for _, attr in columns:
            cells.append(_fmt(getattr(rec, attr)))
            if i == 0:
                cells.append("")
            else:
                # the observed order between levels whose mesh size halves
                cells.append(_fmt(math.log2(getattr(records[i - 1], attr) / getattr(rec, attr))))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_error_table_csv(records: list[ErrorRecord], path: str) -> None:
    """Tabulated errors and observed orders (rates blank on the first row)."""
    _write_rate_table(path, records, [
        ("err_phi_linf_l2", "phi_linf_l2"),
        ("err_mu_l2_l2", "mu_l2_l2"),
        ("err_u_linf_l2", "u_linf_l2"),
        ("err_p_l2_l2", "p_l2_l2"),
    ])


def write_h1_error_table_csv(records: list[ErrorRecord], path: str) -> None:
    _write_rate_table(path, records, [
        ("err_phi_h1", "phi_h1"),
        ("err_mu_h1", "mu_h1"),
        ("err_u_h1", "u_h1"),
        ("err_p_h1", "p_h1"),
    ])


def write_energy_csv(trace: EnergyTrace, path: str) -> None:
    lines = [ENERGY_HEADER]
    for i in range(len(trace.steps)):
        lines.append(",".join([
            str(trace.steps[i]), _fmt(trace.times[i]), _fmt(trace.energy[i]),
            _fmt(trace.dissipation[i]), _fmt(trace.identity_residual[i]),
            _fmt(trace.discriminant[i]), _fmt(trace.root_ratio[i]),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_vtk_snapshot(mesh: Mesh, fields: dict, path: str) -> None:
    """Legacy ASCII unstructured-grid snapshot.

    Scalar entries of `fields` are written per vertex. An entry named "u"
    holds planar quadratic vector coefficients, [u_x; u_y] with one value
    per vertex and edge in each, or raises ValueError; it is sampled at the
    vertices, the first nodes of each component.
    """
    nv = mesh.num_vertices
    nt = mesh.num_triangles
    nodes = nv + mesh.num_edges
    lines = [
        "# vtk DataFile Version 3.0",
        "two-phase flow snapshot",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    for x, y in mesh.vertices:
        lines.append(f"{x:.12g} {y:.12g} 0")
    lines.append(f"CELLS {nt} {4 * nt}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)
    lines.append(f"POINT_DATA {nv}")
    for name, values in fields.items():
        values = np.asarray(values)
        if name == "u":
            if values.shape[0] != 2 * nodes:
                raise ValueError(f"velocity has {values.shape[0]} values, expected 2 * {nodes}")
            lines.append("VECTORS u double")
            for a, b in zip(values[:nv], values[nodes:nodes + nv]):
                lines.append(f"{a:.12g} {b:.12g} 0")
        else:
            lines.append(f"SCALARS {name} double")
            lines.append("LOOKUP_TABLE default")
            for v in values[:nv]:
                lines.append(f"{v:.12g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

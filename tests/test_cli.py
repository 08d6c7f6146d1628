import json
import pathlib
import re
import shlex

import numpy as np
import pytest

from lattice_recon import (IndexSet, read_coefficients, read_indexset,
                           read_lattice, values_from_coeffs, verify_plan_b,
                           write_indexset, write_lattice, write_values,
                           Rank1Lattice)
from lattice_recon.cli import build_parser, main


def run(*argv):
    return main([str(a) for a in argv])


def test_indexset_generation(tmp_path):
    out = tmp_path / "hc.idx"
    assert run("indexset", "--rule", "product", "--betas", "1,1",
               "--degree", "3", "--dim", "2", "-o", out) == 0
    L = read_indexset(out)
    assert len(L) == 12
    assert L.domain == "nonneg"


def test_indexset_mirror(tmp_path):
    src = tmp_path / "src.idx"
    out = tmp_path / "m.idx"
    write_indexset(IndexSet([(0, 0), (1, 2)], domain="nonneg"), src)
    assert run("indexset", "--mirror", src, "-o", out) == 0
    M = read_indexset(out)
    assert set(M) == {(0, 0), (1, 2), (-1, 2), (1, -2), (-1, -2)}


def test_indexset_report(tmp_path):
    out = tmp_path / "box.idx"
    rep = tmp_path / "box.json"
    assert run("indexset", "--rule", "max", "--betas", "1,1", "--degree",
               "2", "--dim", "2", "-o", out, "--report", rep) == 0
    report = json.loads(rep.read_text())
    assert report["downward_closed"] is True
    assert report["cardinality"] == 9
    assert report["bound_violations"] == []


def test_indexset_missing_dim_exits_2(tmp_path):
    assert run("indexset", "--rule", "max", "--betas", "1", "--degree", "2",
               "-o", tmp_path / "x.idx") == 2


def test_cbc_pipeline_with_verify(tmp_path):
    idx = tmp_path / "hc.idx"
    lat = tmp_path / "hc.lat"
    assert run("indexset", "--rule", "product", "--betas", "1,1",
               "--degree", "3", "--dim", "2", "-o", idx) == 0
    assert run("cbc", "--space", "cosine", "--goal", "reconstruction",
               "--plan", "B", "--strategy", "mixed", "-i", idx,
               "-o", lat) == 0
    lattice, c_table = read_lattice(lat)
    assert c_table is None
    L = read_indexset(idx)
    assert verify_plan_b(lattice.z, lattice.n, L).ok
    assert (tmp_path / "hc.lat.stats.json").exists()
    assert run("verify", "--space", "cosine", "--goal", "reconstruction",
               "--plan", "B", "-i", idx, "--lattice", lat) == 0


def test_cbc_composite_n_with_elimination_exits_2(tmp_path):
    idx = tmp_path / "s.idx"
    write_indexset(IndexSet([(0,), (1,)], domain="nonneg"), idx)
    assert run("cbc", "--space", "cosine", "--goal", "reconstruction",
               "--plan", "B", "--n", "4", "--strategy", "elimination",
               "-i", idx, "-o", tmp_path / "s.lat") == 2


@pytest.mark.parametrize("factor", ("inf", "nan"))
def test_cbc_non_finite_switch_factor_exits_2(tmp_path, capsys, factor):
    idx = tmp_path / "s.idx"
    write_indexset(IndexSet([(0, 0), (0, 1), (1, 0), (1, 1)],
                            domain="nonneg"), idx)
    assert run("cbc", "--space", "cosine", "--goal", "reconstruction",
               "--plan", "B", "--mixed-switch-factor", factor, "-i", idx,
               "-o", tmp_path / "s.lat") == 2
    assert "mixed switch factor must be finite" in capsys.readouterr().err


def test_cbc_n_beyond_32_bits_exits_2(tmp_path, capsys):
    # a prime beyond the range of the primality witnesses
    idx = tmp_path / "s.idx"
    write_indexset(IndexSet([(0,), (1,)], domain="nonneg"), idx)
    assert run("cbc", "--space", "cosine", "--goal", "reconstruction",
               "--plan", "B", "--n", "350000000000009", "-i", idx,
               "-o", tmp_path / "s.lat") == 2
    assert "n must fit in 32 bits" in capsys.readouterr().err


def test_cbc_bound_beyond_32_bits_exits_2(tmp_path, capsys):
    # plan C on the d = 8 degree-10 product set asks for n > |L| |M(L)| =
    # 27,738,547,200 and fails before any search
    idx = tmp_path / "hc.idx"
    assert run("indexset", "--rule", "product", "--betas", ",".join("1" * 8),
               "--degree", "10", "--dim", "8", "-o", idx) == 0
    assert run("cbc", "--space", "cosine", "--goal", "reconstruction",
               "--plan", "C", "-i", idx, "-o", tmp_path / "hc.lat") == 2
    assert "existence bound 27738547200" in capsys.readouterr().err


def test_cbc_plan_c_writes_c_table(tmp_path):
    idx = tmp_path / "s.idx"
    lat = tmp_path / "s.lat"
    write_indexset(IndexSet([(0,), (1,), (2,)], domain="nonneg"), idx)
    assert run("cbc", "--space", "cosine", "--goal", "reconstruction",
               "--plan", "C", "-i", idx, "-o", lat) == 0
    lattice, c_table = read_lattice(lat)
    # plan B succeeds at the auto-selected n, so every c_k is 1
    if verify_plan_b(lattice.z, lattice.n, read_indexset(idx)).ok:
        assert set(c_table.values()) == {1}


def test_verify_rejects_bad_lattice(tmp_path):
    idx = tmp_path / "s.idx"
    lat = tmp_path / "bad.lat"
    write_indexset(IndexSet([(0,), (1,), (2,), (3,)], domain="nonneg"), idx)
    write_lattice(Rank1Lattice(3, (1,)), lat)
    assert run("verify", "--space", "cosine", "--goal", "reconstruction",
               "--plan", "B", "-i", idx, "--lattice", lat) == 1


def test_verify_takes_only_task_flags(tmp_path, capsys):
    # a valid plan-C lattice at a composite n: verify needs no construction
    # flags, and rejects them as unknown arguments
    idx = tmp_path / "s.idx"
    lat = tmp_path / "s.lat"
    write_indexset(IndexSet([(0,), (1,), (2,)], domain="nonneg"), idx)
    write_lattice(Rank1Lattice(9, (1,)), lat)
    task = ("verify", "--space", "cosine", "--plan", "C", "-i", idx,
            "--lattice", lat)
    assert run(*task) == 0
    for extra in (("--n", "9"), ("--strategy", "brute_force"),
                  ("--mixed-switch-factor", "0"), ("--projection", "full")):
        with pytest.raises(SystemExit) as exc:
            run(*task, *extra)
        assert exc.value.code == 2
    assert "unrecognized arguments: --projection" in capsys.readouterr().err


def test_seed_only_where_randomness_is_drawn(tmp_path):
    # only reconstruct and experiment draw random numbers; the other
    # subcommands reject --seed
    idx = tmp_path / "s.idx"
    write_indexset(IndexSet([(0,), (1,)], domain="nonneg"), idx)
    with pytest.raises(SystemExit) as exc:
        run("cbc", "--space", "fourier", "-i", idx, "-o", tmp_path / "s.lat",
            "--seed", "1")
    assert exc.value.code == 2


def test_reconstruct_roundtrip(tmp_path):
    idx = tmp_path / "s.idx"
    lat = tmp_path / "s.lat"
    coeffs = tmp_path / "c.txt"
    values = tmp_path / "v.txt"
    assert run("indexset", "--rule", "sum", "--betas", "1,1", "--degree",
               "3", "--dim", "2", "-o", idx) == 0
    assert run("cbc", "--space", "cosine", "--goal", "reconstruction",
               "--plan", "B", "-i", idx, "-o", lat) == 0
    # synthesize values from random coefficients, then reconstruct
    from lattice_recon.transform import cosine_values_from_coeffs
    L = read_indexset(idx)
    lattice, _ = read_lattice(lat)
    rng = np.random.default_rng(0)
    table = {k: float(rng.standard_normal()) for k in L}
    write_values(cosine_values_from_coeffs(lattice, L, table), values)
    assert run("reconstruct", "--space", "cosine", "--plan", "B",
               "--lattice", lat, "-i", idx, "-V", values, "-o", coeffs,
               "--roundtrip") == 0
    back = read_coefficients(coeffs)
    assert max(abs(back[k] - table[k]) for k in L) < 1e-11


def test_verbose_reports_the_lattice_and_the_map_routes(tmp_path, capsys):
    idx = tmp_path / "s.idx"
    lat = tmp_path / "s.lat"
    write_indexset(IndexSet([(0, 0), (1, 0), (0, 1), (2, 0)],
                            domain="nonneg"), idx)
    assert run("cbc", "--space", "cosine", "--plan", "C", "-i", idx,
               "-o", lat) == 0
    assert capsys.readouterr().err == ""
    assert run("cbc", "--space", "cosine", "--plan", "C", "-i", idx,
               "-o", lat, "-v") == 0
    lattice, _ = read_lattice(lat)
    # plan C on a downward-closed set steps over the 15 nonzero indices of
    # L (+) M(L), plan B's auxiliary set; step 2's first candidate, 2,
    # fails, so the step reads its answer off the 6 pairs that mark
    assert capsys.readouterr().err.splitlines() == [
        "lattice_recon.cbc: cosine plan C: steps chain L (+) M(L) in the "
        "fourier space, 15 rows at step 2",
        f"lattice_recon.cbc: step 2 at n={lattice.n}: 15 rows, 1 x 4 "
        "inverses, 6 marking pairs",
        f"lattice_recon.cbc: cosine plan C: n={lattice.n} "
        f"z={','.join(map(str, lattice.z))} after 0 restarts"]
    from lattice_recon.transform import cosine_values_from_coeffs
    values = tmp_path / "v.txt"
    write_values(cosine_values_from_coeffs(lattice, read_indexset(idx),
                                           {(1, 0): 1.0}), values)
    assert run("reconstruct", "--space", "cosine", "--plan", "C",
               "--lattice", lat, "-i", idx, "-V", values,
               "-o", tmp_path / "c.txt", "--roundtrip", "-v") == 0
    # 4 indices in 4 slot pairs forward, 7 sign-orbit rows in 4 pairs back
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"lattice_recon.transform: forward map: n={lattice.n}, 4 distinct "
        "slot pairs, blocked direct DFT",
        f"lattice_recon.transform: synthesis: n={lattice.n}, 4 distinct "
        "slot pairs, blocked direct DFT"]


def test_verbose_reports_each_elimination_step(tmp_path, capsys):
    # cosine integration chains one row of each +-r of M(L_2) \ {0}:
    # (1, 0), (2, 0) and (0, 1), each paired with the zero row, whose
    # inverses come from a 1 x 4 table over the signed components -1, 0, 0
    # and 1 of the second coordinate; no pair marks a candidate, as the
    # rows with last component 0 have no inverse and (0, 1) meets the zero
    # row only at z_2 = 0
    idx = tmp_path / "s.idx"
    lat = tmp_path / "s.lat"
    write_indexset(IndexSet([(0, 0), (1, 0), (0, 1), (2, 0)],
                            domain="nonneg"), idx)
    assert run("cbc", "--space", "cosine", "--goal", "integration",
               "--strategy", "elimination", "-i", idx, "-o", lat, "-v") == 0
    lattice, _ = read_lattice(lat)
    assert capsys.readouterr().err.splitlines() == [
        "lattice_recon.cbc: cosine integration: steps chain L in the cosine "
        "space, 3 rows at step 2",
        f"lattice_recon.cbc: step 2 at n={lattice.n}: 3 rows, 1 x 4 "
        "inverses, 0 marking pairs",
        f"lattice_recon.cbc: cosine integration: n={lattice.n} "
        f"z={','.join(map(str, lattice.z))} after 0 restarts"]


def test_reconstruct_fourier_roundtrip(tmp_path):
    idx = tmp_path / "s.idx"
    lat = tmp_path / "s.lat"
    coeffs = tmp_path / "c.txt"
    values = tmp_path / "v.txt"
    assert run("indexset", "--rule", "sum", "--betas", "1,1", "--degree",
               "3", "--dim", "2", "-o", idx) == 0
    assert run("cbc", "--space", "fourier", "--goal", "reconstruction",
               "-i", idx, "-o", lat) == 0
    from lattice_recon.transform import fourier_values_from_coeffs
    L = read_indexset(idx)
    lattice, _ = read_lattice(lat)
    rng = np.random.default_rng(2)
    table = {k: complex(rng.standard_normal(), rng.standard_normal())
             for k in L}
    write_values(fourier_values_from_coeffs(lattice, L, table), values)
    assert run("reconstruct", "--space", "fourier", "--lattice", lat,
               "-i", idx, "-V", values, "-o", coeffs, "--roundtrip") == 0
    back = read_coefficients(coeffs)
    assert back.space == "fourier"
    assert max(abs(back[k] - table[k]) for k in L) < 1e-11


def test_reconstruct_wrong_length_exits_2(tmp_path):
    idx = tmp_path / "s.idx"
    lat = tmp_path / "s.lat"
    values = tmp_path / "v.txt"
    write_indexset(IndexSet([(0,), (1,)], domain="nonneg"), idx)
    assert run("cbc", "--space", "cosine", "--goal", "reconstruction",
               "--plan", "B", "-i", idx, "-o", lat) == 0
    write_values(np.zeros(3), values)
    assert run("reconstruct", "--space", "cosine", "--plan", "B",
               "--lattice", lat, "-i", idx, "-V", values,
               "-o", tmp_path / "c.txt") == 2


def test_reconstruct_ragged_value_file_exits_2(tmp_path, capsys):
    idx = tmp_path / "s.idx"
    lat = tmp_path / "s.lat"
    values = tmp_path / "v.txt"
    write_indexset(IndexSet([(0,), (1,)], domain="nonneg"), idx)
    write_lattice(Rank1Lattice(3, (1,)), lat)
    values.write_text("n=3\n1.0\n2.0 3.0\n4.0 5.0 6.0\n")
    assert run("reconstruct", "--space", "cosine", "--plan", "B",
               "--lattice", lat, "-i", idx, "-V", values,
               "-o", tmp_path / "c.txt") == 2
    assert "value row 2 has 2 columns" in capsys.readouterr().err


def test_reconstruct_aliasing_exits_4(tmp_path):
    idx = tmp_path / "s.idx"
    lat = tmp_path / "bad.lat"
    values = tmp_path / "v.txt"
    write_indexset(IndexSet([(0,), (1,), (2,), (3,)], domain="nonneg"), idx)
    write_lattice(Rank1Lattice(3, (1,)), lat)
    write_values(np.zeros(3), values)
    assert run("reconstruct", "--space", "cosine", "--plan", "B",
               "--lattice", lat, "-i", idx, "-V", values,
               "-o", tmp_path / "c.txt") == 4


def test_reconstruct_builtin_function(tmp_path):
    idx = tmp_path / "s.idx"
    lat = tmp_path / "s.lat"
    write_indexset(IndexSet([(0, 0), (1, 0), (0, 1)], domain="nonneg"), idx)
    assert run("cbc", "--space", "chebyshev", "--goal", "reconstruction",
               "--plan", "A", "-i", idx, "-o", lat) == 0
    assert run("reconstruct", "--space", "chebyshev", "--plan", "A",
               "--lattice", lat, "-i", idx, "--function", "geometric",
               "-o", tmp_path / "c.txt") == 0


def test_lattice_and_set_of_different_dimension_exit_2(tmp_path, capsys):
    idx = tmp_path / "s.idx"
    lat = tmp_path / "s.lat"
    write_indexset(IndexSet([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)],
                            domain="nonneg"), idx)
    write_lattice(Rank1Lattice(11, (1, 3, 5)), lat)
    message = "lattice dimension 3 differs from index set dimension 2"
    assert run("verify", "--space", "cosine", "--plan", "B", "-i", idx,
               "--lattice", lat) == 2
    assert message in capsys.readouterr().err
    assert run("reconstruct", "--space", "fourier", "--lattice", lat,
               "-i", idx, "--function", "geometric",
               "-o", tmp_path / "c.txt") == 2
    assert message in capsys.readouterr().err


def _experiment_config(tmp_path, **overrides):
    config = {
        "space": "cosine",
        "plan": "B",
        "function": "geometric",
        "seed": 0,
        "cases": [
            {"dim": 2,
             "rule": {"kind": "product", "betas": [1.0, 1.0], "degree": 3}},
            {"dim": 1,
             "rule": {"kind": "max", "betas": [1.0], "degree": 4}},
        ],
    }
    config.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return path


def test_experiment_rows_satisfy_bound(tmp_path):
    cfg = _experiment_config(tmp_path)
    out = tmp_path / "out.csv"
    assert run("experiment", "--config", cfg, "-o", out) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["d", "size", "n", "plan", "truncation_err",
                      "approx_err", "rho", "bound_slack"]
    assert len(lines) == 3
    for line in lines[1:]:
        fields = dict(zip(header, line.split(",")))
        assert float(fields["bound_slack"]) >= 0.0


def test_experiment_rerun_is_byte_identical(tmp_path):
    cfg = _experiment_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run("experiment", "--config", cfg, "-o", out1) == 0
    assert run("experiment", "--config", cfg, "-o", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_experiment_unknown_function_exits_2(tmp_path):
    cfg = _experiment_config(tmp_path, function="nope")
    assert run("experiment", "--config", cfg, "-o", tmp_path / "x.csv") == 2


def test_experiment_bad_schema_exits_2(tmp_path):
    cfg = _experiment_config(tmp_path)
    data = json.loads(cfg.read_text())
    del data["cases"]
    cfg.write_text(json.dumps(data))
    assert run("experiment", "--config", cfg, "-o", tmp_path / "x.csv") == 2


def test_bundled_config_runs(tmp_path):
    assert run("experiment", "--config", "configs/cosine_planB.json",
               "-o", tmp_path / "out.csv") == 0


def test_json_output_mode(tmp_path, capsys):
    out = tmp_path / "j.idx"
    assert run("indexset", "--rule", "max", "--betas", "1", "--degree", "2",
               "--dim", "1", "-o", out, "--json") == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["indices"] == 3


def test_plan_c_pipeline_uses_file_c_table(tmp_path):
    idx = tmp_path / "s.idx"
    lat = tmp_path / "s.lat"
    coeffs = tmp_path / "c.txt"
    write_indexset(IndexSet([(0, 0), (1, 0), (0, 1), (1, 1)],
                            domain="nonneg"), idx)
    assert run("cbc", "--space", "chebyshev", "--goal", "reconstruction",
               "--plan", "C", "-i", idx, "-o", lat) == 0
    assert run("reconstruct", "--space", "chebyshev", "--plan", "C",
               "--lattice", lat, "-i", idx, "--function", "geometric",
               "-o", coeffs) == 0
    table = read_coefficients(coeffs)
    assert table.space == "chebyshev" and len(table) == 4
    # the builtin is not supported on the set, so a value-level roundtrip
    # honestly reports the aliasing deviation
    assert run("reconstruct", "--space", "chebyshev", "--plan", "C",
               "--lattice", lat, "-i", idx, "--function", "geometric",
               "-o", coeffs, "--roundtrip", "--tolerance", "1e-8") == 1
    # in-span values round-trip exactly
    L = read_indexset(idx)
    lattice, c_table = read_lattice(lat)
    rng = np.random.default_rng(1)
    from lattice_recon.transform import chebyshev_values_from_coeffs
    table = {k: float(rng.standard_normal()) for k in L}
    values = tmp_path / "v.txt"
    write_values(chebyshev_values_from_coeffs(lattice, L, table), values)
    assert run("reconstruct", "--space", "chebyshev", "--plan", "C",
               "--lattice", lat, "-i", idx, "-V", values,
               "-o", coeffs, "--roundtrip") == 0


def test_cbc_reduce_n_and_stats_path(tmp_path):
    idx = tmp_path / "s.idx"
    lat = tmp_path / "s.lat"
    stats = tmp_path / "custom_stats.json"
    write_indexset(IndexSet([(0, 0), (1, 0), (0, 1)], domain="nonneg"), idx)
    assert run("cbc", "--space", "fourier", "--goal", "reconstruction",
               "--n", "101", "--reduce-n", "-i", idx, "-o", lat,
               "--stats", stats) == 0
    lattice, _ = read_lattice(lat)
    assert lattice.n < 101
    assert stats.exists()
    assert run("verify", "--space", "fourier", "--goal", "reconstruction",
               "-i", idx, "--lattice", lat) == 0


def test_bad_rule_parameters_exit_2(tmp_path):
    # first weight must be 1
    assert run("indexset", "--rule", "max", "--betas", "0.5", "--degree",
               "2", "--dim", "1", "-o", tmp_path / "x.idx") == 2
    # malformed index-set file
    bad = tmp_path / "bad.idx"
    bad.write_text("dim=2 domain=weird\n1 2\n")
    assert run("cbc", "--space", "fourier", "--goal", "reconstruction",
               "-i", bad, "-o", tmp_path / "x.lat") == 2


@pytest.mark.parametrize("c_lines", ["c: 1 2\n", "c: 1 1\n", ""],
                         ids=["c=2", "c=1", "no c lines"])
def test_reconstruct_plan_c_counts_without_the_c_lines(tmp_path, capsys,
                                                       c_lines):
    # n = 2, z = 1: both signs of (1,) sit in slot 1, so c = 2 whatever
    # the file says, and values 1, -1 give 1 / sqrt(2)
    idx, lat = tmp_path / "s.idx", tmp_path / "s.lat"
    values, out = tmp_path / "v.txt", tmp_path / "c.txt"
    write_indexset(IndexSet([(1,)], domain="nonneg"), idx)
    lat.write_text("n=2 z=1\n" + c_lines, encoding="ascii")
    write_values(np.array([1.0, -1.0]), values)
    assert run("reconstruct", "--space", "cosine", "--plan", "C",
               "--lattice", lat, "-i", idx, "-V", values, "-o", out,
               "--roundtrip", "--json") == 0
    assert json.loads(capsys.readouterr().out)["roundtrip_deviation"] == 0
    assert out.read_text() == "dim=1 space=cosine\n1 0.7071067811865476\n"


def test_reconstruct_plan_c_ignores_the_written_counts(tmp_path):
    # cbc writes the c: lines of a lattice with c_(2,3) = 2; reconstruct
    # writes the same bytes from the file as written, without its c: lines
    # and with every count set to 1
    idx, lat = tmp_path / "s.idx", tmp_path / "s.lat"
    L = IndexSet([(0, 1), (0, 3), (2, 1), (2, 3)], domain="nonneg")
    write_indexset(L, idx)
    assert run("cbc", "--space", "chebyshev", "--plan", "C", "--n", "3",
               "-i", idx, "-o", lat) == 0
    lattice, c_table = read_lattice(lat)
    assert c_table[(2, 3)] == 2
    line = lat.read_text().splitlines()[0]
    files = {"written": lat, "bare": tmp_path / "bare.lat",
             "ones": tmp_path / "ones.lat"}
    files["bare"].write_text(line + "\n", encoding="ascii")
    write_lattice(lattice, files["ones"], dict.fromkeys(c_table, 1))
    rng = np.random.default_rng(4)
    values = tmp_path / "v.txt"
    write_values(values_from_coeffs(
        "chebyshev", lattice, L,
        {k: float(rng.standard_normal()) for k in L}), values)
    written = {}
    for name, path in files.items():
        out = tmp_path / f"{name}.txt"
        assert run("reconstruct", "--space", "chebyshev", "--plan", "C",
                   "--lattice", path, "-i", idx, "-V", values, "-o", out,
                   "--roundtrip") == 0
        written[name] = out.read_bytes()
    assert written["bare"] == written["written"] == written["ones"]


def test_malformed_headers_exit_2_naming_the_key(tmp_path, capsys):
    # a header without one of its keys is an input error, not an
    # internal one
    bare_set, lat = tmp_path / "bare.idx", tmp_path / "bare.lat"
    bare_set.write_text("dim=2\n0 0\n1 0\n", encoding="ascii")
    lat.write_text("n=7\n", encoding="ascii")
    assert run("indexset", "--mirror", bare_set,
               "-o", tmp_path / "m.idx") == 2
    assert "lacks key 'domain'" in capsys.readouterr().err
    idx = tmp_path / "s.idx"
    write_indexset(IndexSet([(0,), (1,)], domain="nonneg"), idx)
    assert run("verify", "--space", "fourier", "-i", idx,
               "--lattice", lat) == 2
    assert "lacks key 'z'" in capsys.readouterr().err
    write_lattice(Rank1Lattice(3, (1,)), lat)
    values = tmp_path / "v.txt"
    values.write_text("x=3\n1.0\n2.0\n3.0\n", encoding="ascii")
    assert run("reconstruct", "--space", "fourier", "--lattice", lat,
               "-i", idx, "-V", values, "-o", tmp_path / "c.txt") == 2
    assert "lacks key 'n'" in capsys.readouterr().err


@pytest.mark.parametrize("space", ["cosine", "chebyshev"])
def test_reconstruct_complex_values_in_a_real_space_exit_2(tmp_path, capsys,
                                                           space):
    idx, lat = tmp_path / "s.idx", tmp_path / "s.lat"
    write_indexset(IndexSet([(0,), (1,)], domain="nonneg"), idx)
    write_lattice(Rank1Lattice(5, (1,)), lat)
    values = tmp_path / "v.txt"
    write_values(np.arange(5) + 0.5j, values)
    assert run("reconstruct", "--space", space, "--plan", "B",
               "--lattice", lat, "-i", idx, "-V", values,
               "-o", tmp_path / "c.txt") == 2
    assert f"{space} values must be real" in capsys.readouterr().err


def test_readme_commands_parse():
    # every lattice-recon command in README's sh blocks, its continuation
    # lines joined, parses: a removed flag cannot stay in the docs
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    commands = [shlex.split(line, comments=True)
                for block in blocks
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [c[1:] for c in commands if c[:1] == ["lattice-recon"]]
    assert len(commands) >= 5
    for argv in commands:
        build_parser().parse_args(argv)

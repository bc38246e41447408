import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from distreg import cli, dataio, model as mdl, pipeline, register as reg
from distreg.errors import DistregError, MalformedFile


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """One small simulated dataset reused across CLI tests."""
    d = tmp_path_factory.mktemp("cli") / "ds"
    code = run([
        "simulate", "--seed", 4, "--frames", 16, "--extent", 44, "--obstacles", 14,
        "--spacing", 1.4, "--start-x", -10, "--start-y", 0,
        "--azimuth-steps", 128, "--rings", 5, "--ring-lo", -10, "--ring-hi", 2,
        "--max-range", 45, "--noise-sigma", 0.01, "--out", d,
    ])
    assert code == 0
    return d


@pytest.fixture(scope="module")
def pairs_file(dataset, tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "pairs.csv"
    code = run(["distill", "--dataset", dataset, "--d1", 4, "--d2", 14,
                "--max-overlap", 1.0, "--out", p])
    assert code == 0
    return p


@pytest.fixture(scope="module")
def checkpoint(dataset, pairs_file, tmp_path_factory):
    c = tmp_path_factory.mktemp("cli") / "model.ckpt"
    code = run([
        "train", "--dataset", dataset, "--pairs", pairs_file, "--out", c,
        "--epochs", 1, "--k", 6, "--feature-dim", 12, "--phi", 2,
        "--decoder-hidden", "32,16", "--psi", 2, "--alpha", 3,
        "--scope-radius", 22, "--input-voxel-size", 0.5, "--seed", 3,
    ])
    assert code == 0
    return c


class TestUsage:
    def test_no_command_usage_error(self):
        assert run([]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self, tmp_path):
        assert run(["simulate", "--seed", 1]) == 2  # no --out

    def test_unknown_config_key(self, tmp_path, dataset):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus-key=1\n")
        assert run(["distill", "--dataset", dataset, "--out", tmp_path / "p.csv",
                    "--config", cfg]) == 2

    @pytest.mark.parametrize("command,line", [
        (["distill", "--dataset", "ds"], "d1=abc"),
        (["distill", "--dataset", "ds"], "require-nonempty=maybe"),
        (["simulate"], "seed=abc"),
        (["evaluate", "--dataset", "ds", "--pairs", "p.csv"], "criterion=bogus"),
    ], ids=["float", "store-true", "int", "choice"])
    def test_bad_config_value_usage_error(self, tmp_path, capsys, command, line):
        # rejected before any input is read: none of the named inputs exists
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# run settings\n{line}\n")
        out = tmp_path / "out"
        assert run([*command, "--config", cfg, "--out", out]) == 2
        key, _, value = line.partition("=")
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {cfg}: bad value for {key.replace('-', '_')}: {value!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("value,expected", [("yes", True), ("ON", True), ("0", False),
                                                ("off", False)])
    def test_config_store_true_values(self, value, expected, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"require-nonempty={value}\n")
        parser, commands = cli.build_parser()
        argv = ["distill", "--dataset", "ds", "--config", str(cfg), "--out", "p.csv"]
        args = cli._merge_config(parser, commands["distill"], argv, parser.parse_args(argv))
        assert args.require_nonempty is expected


class TestExitCodes:
    """Each error class carries its exit code, and the README table lists
    exactly the classes with each code."""

    @staticmethod
    def _error_classes():
        seen, todo = [], [DistregError]
        while todo:
            cls = todo.pop()
            seen.append(cls)
            todo.extend(cls.__subclasses__())
        return seen

    def test_every_class_has_a_documented_code(self):
        for cls in self._error_classes():
            assert cls.exit_code in {1, 2, 3, 4, 5}, cls

    def test_readme_table_matches_classes(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        table = {}
        for row in re.findall(r"^\| (\d) \|.*\|(.*)\|$", readme.read_text(), re.M):
            table[int(row[0])] = set(re.findall(r"`(\w+)`", row[1]))
        expected = {code: set() for code in range(6)}
        for cls in self._error_classes():
            expected[cls.exit_code].add(cls.__name__)
        assert table == expected

    def test_unmapped_error_exits_1(self, monkeypatch, capsys):
        def fail(args):
            raise DistregError("broken invariant")
        monkeypatch.setattr(cli, "cmd_simulate", fail)
        assert run(["simulate", "--out", "unused"]) == 1
        assert capsys.readouterr().err == "error: broken invariant\n"


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--seed", 7, "--frames", 5, "--extent", 30,
                "--obstacles", 6, "--azimuth-steps", 64, "--rings", 3]
        assert run(args + ["--out", tmp_path / "a"]) == 0
        assert run(args + ["--out", tmp_path / "b"]) == 0
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_frame_count_matches_flag(self, dataset):
        seq = dataio.load_dataset(dataset)
        assert len(seq) == 16

    def test_refuses_overwrite_without_force(self, dataset):
        assert run(["simulate", "--seed", 1, "--frames", 2, "--out", dataset]) == 3

    @pytest.mark.parametrize("flag,value", [
        ("--frames", 0), ("--azimuth-steps", 4), ("--obstacles", -1), ("--height", 0),
        ("--spacing", -1), ("--spacing", "nan"), ("--extent", -5), ("--extent", "nan"),
        ("--noise-sigma", "nan"), ("--max-range", "nan"), ("--rings", 0),
        ("--rings", -1), ("--heading", "nan"), ("--start-x", "inf"), ("--start-y", "nan"),
    ])
    def test_bad_setting_usage_error(self, tmp_path, capsys, flag, value):
        # rejected before anything is simulated: no output directory appears
        out = tmp_path / "ds"
        assert run(["simulate", "--frames", 2, "--azimuth-steps", 64, "--rings", 3,
                    flag, value, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert flag[2:].split("-")[0] in err[0]  # the message names the setting
        assert not out.exists()

    def test_force_overwrites(self, tmp_path):
        out = tmp_path / "ds"
        assert run(["simulate", "--seed", 1, "--frames", 2, "--azimuth-steps", 64,
                    "--rings", 3, "--out", out]) == 0
        assert run(["simulate", "--seed", 1, "--frames", 2, "--azimuth-steps", 64,
                    "--rings", 3, "--out", out, "--force"]) == 0


class TestDistill:
    def test_rows_satisfy_recorded_predicates(self, pairs_file):
        records = dataio.read_pairs_file(pairs_file)
        assert records
        for r in records:
            assert 4.0 <= r.distance <= 14.0
            assert 0.0 <= r.overlap <= 1.0

    def test_recomputation_matches_file(self, dataset, pairs_file):
        seq = dataio.load_dataset(dataset)
        expect = dataio.distill_records(seq, seq, dataio.PairSpec(4.0, 14.0, 1.0), tau=0.5)
        assert dataio.read_pairs_file(pairs_file) == expect

    def test_max_overlap_cap_enforced(self, dataset, tmp_path):
        out = tmp_path / "lo.csv"
        code = run(["distill", "--dataset", dataset, "--d1", 0, "--d2", 100,
                    "--max-overlap", 0.3, "--out", out])
        assert code == 0
        for r in dataio.read_pairs_file(out):
            assert r.overlap <= 0.3

    def test_empty_guard_exit_4(self, dataset, tmp_path):
        code = run(["distill", "--dataset", dataset, "--d1", 500, "--d2", 600,
                    "--require-nonempty", "--out", tmp_path / "none.csv"])
        assert code == 4

    def test_missing_dataset_exit_3(self, tmp_path):
        assert run(["distill", "--dataset", tmp_path / "nope", "--out",
                    tmp_path / "p.csv"]) == 3

    @pytest.mark.parametrize("flags", [["--d1", 5, "--d2", 4], ["--tau", 0],
                                       ["--max-overlap", 0]])
    def test_bad_spec_usage_error(self, tmp_path, capsys, flags):
        # rejected before the dataset is read: the dataset does not exist
        out = tmp_path / "p.csv"
        assert run(["distill", "--dataset", tmp_path / "nope", *flags, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_config_file_defaults_and_flag_precedence(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# distillation bin\nd1=4\nd2=9\nmax-overlap=1.0\n")
        out1 = tmp_path / "from-config.csv"
        assert run(["distill", "--dataset", dataset, "--config", cfg, "--out", out1]) == 0
        for r in dataio.read_pairs_file(out1):
            assert 4.0 <= r.distance <= 9.0
        out2 = tmp_path / "flag-override.csv"
        assert run(["distill", "--dataset", dataset, "--config", cfg,
                    "--d2", 6, "--out", out2]) == 0
        got = dataio.read_pairs_file(out2)
        assert all(r.distance <= 6.0 for r in got)
        assert len(got) < len(dataio.read_pairs_file(out1))


class TestTrain:
    def test_checkpoint_bytes_reproducible(self, dataset, pairs_file, tmp_path):
        args = ["train", "--dataset", dataset, "--pairs", pairs_file,
                "--epochs", 1, "--k", 6, "--feature-dim", 12, "--phi", 2,
                "--decoder-hidden", "32,16", "--psi", 2, "--alpha", 3,
                "--scope-radius", 22, "--input-voxel-size", 0.5, "--seed", 3]
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_defaults_embed_protocol_parameters(self):
        parser, commands = cli.build_parser()
        d = {a.dest: a.default for a in commands["train"]._actions}
        assert d["psi"] == 3 and d["alpha"] == 10.0 and d["phi"] == 4
        assert d["decoder_hidden"] == "512,256"
        assert d["lambda1"] == 1.0 and d["lambda2"] == 0.1

    def test_baseline_arm_flagging(self, dataset, pairs_file, tmp_path):
        log = tmp_path / "log.csv"
        code = run(["train", "--dataset", dataset, "--pairs", pairs_file,
                    "--out", tmp_path / "c.ckpt", "--log", log,
                    "--epochs", 1, "--k", 6, "--feature-dim", 12, "--phi", 2,
                    "--decoder-hidden", "16,8", "--psi", 2, "--alpha", 3,
                    "--scope-radius", 22, "--input-voxel-size", 0.5,
                    "--lambda1", 0, "--lambda2", 0])
        assert code == 0
        lines = log.read_text().splitlines()
        step_rows = [l for l in lines if l.startswith("step,")]
        assert step_rows
        for row in step_rows:
            fields = row.split(",")
            assert float(fields[3]) == 0.0  # l_cd column
            assert float(fields[2]) == float(fields[5])  # total == l_ml

    def test_checkpoint_loadable(self, checkpoint):
        enc, dec = mdl.load_checkpoint(checkpoint)
        assert enc.k == 6 and enc.l == 12 and dec.phi == 2

    def test_pairs_required_without_curriculum(self, dataset, tmp_path):
        assert run(["train", "--dataset", dataset, "--out", tmp_path / "x.ckpt"]) == 2

    @pytest.mark.parametrize("flag,value", [("--epochs", 0), ("--momentum", 1),
                                            ("--decoder-hidden", "x"), ("--k", 0),
                                            ("--m-pos", 2), ("--psi", 0),
                                            ("--n-disturb", -1), ("--voxel-size", "nan"),
                                            ("--alpha", "nan"), ("--scope-radius", "nan"),
                                            ("--input-voxel-size", "nan"),
                                            ("--input-voxel-size", -1),
                                            ("--lr", "nan"), ("--lr", "inf"),
                                            ("--lambda1", "nan"), ("--m-pos", "nan"),
                                            ("--alpha", "inf")])
    def test_bad_train_config_usage_error(self, dataset, pairs_file, tmp_path, capsys,
                                          flag, value):
        out = tmp_path / "x.ckpt"
        assert run(["train", "--dataset", dataset, "--pairs", pairs_file,
                    flag, value, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--voxel-size", "--input-voxel-size"])
    def test_infinite_voxel_size_names_flag(self, dataset, pairs_file, tmp_path, capsys, flag):
        # an infinite size used to reach aggregation and exit 4 ("requires a
        # non-empty cloud"); the message names the setting instead
        out = tmp_path / "x.ckpt"
        assert run(["train", "--dataset", dataset, "--pairs", pairs_file,
                    flag, "inf", "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"{flag[2:].replace('-', '_')} must be" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--max-overlap", 0], ["--tau", 0],
                                       ["--tau", -1, "--curriculum-d2", 40],
                                       ["--curriculum-d2", "nan"]])
    def test_bad_curriculum_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "x.ckpt"
        assert run(["train", "--dataset", tmp_path / "nope", "--curriculum", *flags,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_k_above_cloud_size_exit_4(self, dataset, pairs_file, tmp_path, capsys):
        out = tmp_path / "x.ckpt"
        assert run(["train", "--dataset", dataset, "--pairs", pairs_file, "--epochs", 1,
                    "--k", 100000, "--out", out]) == 4
        assert capsys.readouterr().err.startswith("error: cloud has ")
        assert not out.exists()

    def test_no_neighbor_frames_exit_4(self, tmp_path, capsys):
        # a one-frame dataset leaves the key frame nothing to aggregate
        ds = tmp_path / "one"
        assert run(["simulate", "--seed", 1, "--frames", 1, "--azimuth-steps", 64,
                    "--rings", 3, "--out", ds]) == 0
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("i,j,distance_m,overlap\n0,0,0,1\n")
        out = tmp_path / "x.ckpt"
        capsys.readouterr()
        assert run(["train", "--dataset", ds, "--pairs", pairs, "--epochs", 1, "--k", 6,
                    "--feature-dim", 12, "--phi", 2, "--decoder-hidden", "32,16",
                    "--out", out]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no non-key frames")
        assert not out.exists()

    def test_curriculum_mode(self, dataset, tmp_path):
        code = run(["train", "--dataset", dataset, "--curriculum",
                    "--curriculum-d2", 12, "--out", tmp_path / "cur.ckpt",
                    "--epochs", 1, "--k", 6, "--feature-dim", 12, "--phi", 2,
                    "--decoder-hidden", "16,8", "--psi", 2, "--alpha", 3,
                    "--scope-radius", 22, "--input-voxel-size", 0.5])
        assert code == 0
        assert (tmp_path / "cur.ckpt").exists()


class TestEvaluate:
    def test_oracle_gt_full_recall(self, dataset, pairs_file, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = run(["evaluate", "--dataset", dataset, "--pairs", pairs_file,
                    "--oracle-gt", "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert ("criterion thresholds: loose (5,2) / normal (1.5,0.6) / strict (0.5,0.3)"
                in printed.splitlines())
        records = reg.read_results(out)
        assert records
        assert all(r.success["loose"] and r.success["normal"] and r.success["strict"]
                   for r in records)

    def test_summary_recall_matches_file_recount(self, dataset, pairs_file, checkpoint,
                                                 tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = run(["evaluate", "--dataset", dataset, "--pairs", pairs_file,
                    "--checkpoint", checkpoint, "--ransac-iterations", 300,
                    "--input-voxel-size", 0.5, "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        records = reg.read_results(out)
        for crit in reg.CRITERIA:
            rr = float(np.mean([r.success[crit.name] for r in records]))
            line = next(l for l in printed.splitlines() if l.startswith(crit.name + ","))
            assert float(line.split(",")[1]) == pytest.approx(rr, abs=5e-5)

    def test_bins_report(self, dataset, pairs_file, checkpoint, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = run(["evaluate", "--dataset", dataset, "--pairs", pairs_file,
                    "--checkpoint", checkpoint, "--ransac-iterations", 200,
                    "--input-voxel-size", 0.5, "--bins", "4:9,9:14", "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "bin_lo,bin_hi,rr,n_pairs" in printed

    def test_density_ratio_arms(self, dataset, pairs_file, checkpoint, tmp_path, capsys):
        out = tmp_path / "density.csv"
        code = run(["evaluate", "--dataset", dataset, "--pairs", pairs_file,
                    "--checkpoint", checkpoint, "--ransac-iterations", 200,
                    "--input-voxel-size", 0.5, "--density-ratios", "0.5,1", "--out", out])
        assert code == 0
        assert (tmp_path / "density.r0.5.csv").exists()
        assert (tmp_path / "density.r1.csv").exists()
        printed = capsys.readouterr().out
        assert "density protocol" in printed

    def test_density_identity_arm_matches_plain(self, dataset, pairs_file, checkpoint,
                                                tmp_path):
        args = ["evaluate", "--dataset", dataset, "--pairs", pairs_file,
                "--checkpoint", checkpoint, "--ransac-iterations", 200,
                "--input-voxel-size", 0.5]
        assert run(args + ["--out", tmp_path / "plain.csv"]) == 0
        assert run(args + ["--density-ratios", "1", "--out", tmp_path / "d.csv"]) == 0
        assert (tmp_path / "d.r1.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_bins_match_pipeline(self, dataset, pairs_file, checkpoint, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = run(["evaluate", "--dataset", dataset, "--pairs", pairs_file,
                    "--checkpoint", checkpoint, "--ransac-iterations", 200,
                    "--input-voxel-size", 0.5, "--bins", "9:14,4:9,100:200",
                    "--criterion", "loose", "--out", out])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        rows = printed[printed.index("bin_lo,bin_hi,rr,n_pairs") + 1:]
        expect = pipeline.eval_distance_bins(
            reg.read_results(out), [(9.0, 14.0), (4.0, 9.0), (100.0, 200.0)], reg.LOOSE)
        assert len(rows) == len(expect) == 3
        for row, ((lo, hi), entry) in zip(rows, expect.items()):
            f_lo, f_hi, rr, n = row.split(",")
            assert (float(f_lo), float(f_hi), int(n)) == (lo, hi, entry["n_pairs"])
            if entry["rr"] is None:
                assert rr == ""
            else:
                assert float(rr) == pytest.approx(entry["rr"], abs=5e-5)
        assert sum(e["n_pairs"] for e in expect.values()) == len(reg.read_results(out))

    @pytest.mark.parametrize("extra", [
        ["--density-ratios", "0"], ["--density-ratios", "-0.5"],
        ["--density-ratios", "1.5"], ["--density-ratios", "abc"],
        ["--bins", "5"], ["--bins", "x:y"], ["--bins", "9:4"], ["--bins", "4:9,6:14"],
        ["--density-ratios", "0.5", "--bins", "4:9"], ["--density-ratios", "0.5", "--oracle-gt"],
        ["--input-voxel-size", "nan"], ["--input-voxel-size", "-1"],
    ], ids=lambda extra: "-".join(a.lstrip("-") for a in extra))
    def test_bad_protocol_usage_error(self, dataset, pairs_file, checkpoint, tmp_path,
                                      capsys, extra):
        out_dir = tmp_path / "o"
        out_dir.mkdir()
        code = run(["evaluate", "--dataset", dataset, "--pairs", pairs_file,
                    "--checkpoint", checkpoint, *extra, "--out", out_dir / "r.csv"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert list(out_dir.iterdir()) == []

    def test_infinite_input_voxel_size_names_flag(self, dataset, pairs_file, checkpoint,
                                                  tmp_path, capsys):
        out_dir = tmp_path / "o"
        out_dir.mkdir()
        assert run(["evaluate", "--dataset", dataset, "--pairs", pairs_file,
                    "--checkpoint", checkpoint, "--input-voxel-size", "inf",
                    "--out", out_dir / "r.csv"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --input-voxel-size must be >= 0 and finite"]
        assert list(out_dir.iterdir()) == []

    def test_checkpoint_required_without_oracle(self, dataset, pairs_file, tmp_path):
        assert run(["evaluate", "--dataset", dataset, "--pairs", pairs_file,
                    "--out", tmp_path / "r.csv"]) == 2

    @pytest.mark.parametrize("flag,value", [("--ransac-iterations", 0),
                                            ("--inlier-threshold", 0),
                                            ("--inlier-threshold", "nan")])
    def test_bad_ransac_config_usage_error(self, dataset, pairs_file, checkpoint, tmp_path,
                                           flag, value):
        out = tmp_path / "r.csv"
        assert run(["evaluate", "--dataset", dataset, "--pairs", pairs_file,
                    "--checkpoint", checkpoint, flag, value, "--out", out]) == 2
        assert not out.exists()

    def test_too_few_matches_exit_4(self, dataset, pairs_file, checkpoint, tmp_path, capsys):
        # 8 m input voxels leave some pair with fewer than 3 mutual matches
        out = tmp_path / "r.csv"
        assert run(["evaluate", "--dataset", dataset, "--pairs", pairs_file,
                    "--checkpoint", checkpoint, "--ransac-iterations", 200,
                    "--input-voxel-size", 8, "--out", out]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: need >= 3 correspondences")
        assert not out.exists()

    def test_empty_point_file_exit_4(self, dataset, pairs_file, checkpoint, tmp_path,
                                     capsys):
        assert any(r.i == 0 for r in dataio.read_pairs_file(pairs_file))
        ds = tmp_path / "ds"
        shutil.copytree(dataset, ds)
        (ds / "000000.bin").write_bytes(b"")
        out = tmp_path / "r.csv"
        assert run(["evaluate", "--dataset", ds, "--pairs", pairs_file,
                    "--checkpoint", checkpoint, "--ransac-iterations", 200,
                    "--input-voxel-size", 0.5, "--out", out]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0] == "error: operation requires a non-empty cloud"
        assert not out.exists()

    def test_empty_pairs_exit_4(self, dataset, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("i,j,distance_m,overlap\n")
        assert run(["evaluate", "--dataset", dataset, "--pairs", empty,
                    "--oracle-gt", "--out", tmp_path / "r.csv"]) == 4


class TestMalformedInput:
    """Malformed input exits 3 with one error line naming the file."""

    def _expect_exit_3(self, argv, path, capsys):
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}")

    def test_pairs_file_not_utf8(self, dataset, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_bytes(b"i,j,distance_m,overlap\n0,\xff,1,1\n")
        self._expect_exit_3(["evaluate", "--dataset", dataset, "--pairs", pairs,
                             "--oracle-gt", "--out", tmp_path / "r.csv"], pairs, capsys)

    def test_config_file_not_utf8(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"tau=0.5\n# \xe9t\xe9\n")
        with pytest.raises(MalformedFile, match=re.escape(str(cfg))):
            cli.load_config_file(cfg)
        self._expect_exit_3(["distill", "--dataset", dataset, "--config", cfg,
                             "--out", tmp_path / "p.csv"], cfg, capsys)

    def test_nan_coordinate_in_point_file(self, dataset, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(dataset, ds)
        records = np.fromfile(ds / "000003.bin", dtype="<f4")
        records[5] = np.nan  # the y coordinate of the second point
        records.tofile(ds / "000003.bin")
        self._expect_exit_3(["distill", "--dataset", ds, "--out", tmp_path / "p.csv"],
                            ds / "000003.bin", capsys)
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("meta", [b"{not json", b'{"seed": 4}'],
                             ids=["not-json", "no-frame-indices"])
    def test_bad_meta_json(self, dataset, tmp_path, capsys, meta):
        ds = tmp_path / "ds"
        shutil.copytree(dataset, ds)
        (ds / "meta.json").write_bytes(meta)
        self._expect_exit_3(["distill", "--dataset", ds, "--out", tmp_path / "p.csv"],
                            ds / "meta.json", capsys)
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("command", [
        ["train", "--epochs", 1, "--k", 6],
        ["evaluate", "--checkpoint", "CKPT"],
        ["evaluate", "--oracle-gt"],
        ["evaluate", "--checkpoint", "CKPT", "--density-ratios", "0.5,1"],
    ], ids=["train", "evaluate", "oracle-gt", "density-ratios"])
    def test_pair_names_missing_frame(self, dataset, checkpoint, tmp_path, capsys, command):
        # frame 99 is not in the 16-frame dataset; nothing is written
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("i,j,distance_m,overlap\n0,3,4.2,0.5\n2,99,9.8,0.3\n")
        argv = [checkpoint if a == "CKPT" else a for a in command]
        self._expect_exit_3([*argv, "--dataset", dataset, "--pairs", pairs,
                             "--out", tmp_path / "out"], pairs, capsys)
        assert sorted(tmp_path.iterdir()) == [pairs]

    @pytest.mark.parametrize("row,side", [("99,3", 0), ("3,99", 1)], ids=["i", "j"])
    def test_missing_frame_names_pair_and_dataset(self, dataset, tmp_path, capsys, row, side):
        other = tmp_path / "other"
        shutil.copytree(dataset, other)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"i,j,distance_m,overlap\n{row},4.2,0.5\n")
        capsys.readouterr()
        assert run(["evaluate", "--oracle-gt", "--dataset", dataset, "--dataset-b", other,
                    "--pairs", pairs, "--out", tmp_path / "r.csv"]) == 3
        named = (dataset, other)[side]
        assert capsys.readouterr().err == (
            f"error: {pairs}: pair {row} names frame 99, which dataset {named} lacks\n")

    def test_malformed_checkpoint(self, dataset, pairs_file, checkpoint, tmp_path, capsys):
        # a first weight four inputs wide used to end in a matmul traceback
        enc, dec = mdl.load_checkpoint(checkpoint)
        bad = tmp_path / "bad.ckpt"
        w1 = np.ones((enc.layers[0].shape[0], 4))
        mdl.save_checkpoint(bad, replace(enc, layers=(w1, *enc.layers[1:])), dec)
        self._expect_exit_3(["evaluate", "--dataset", dataset, "--pairs", pairs_file,
                             "--checkpoint", bad, "--out", tmp_path / "r.csv"], bad, capsys)
        assert not (tmp_path / "r.csv").exists()

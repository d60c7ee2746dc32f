import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctxnmt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# shared artifacts: one tiny dataset and one tiny trained model
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run_dir = root / "run"
    assert main(["gen-synthetic", "--out-dir", str(data), "--train-size", "150",
                 "--test-size", "30", "--noun-inventory", "8",
                 "--distractor-prob", "0.5", "--seed", "13"]) == 0
    assert main(["train", "--data", str(data / "train.tsv"),
                 "--dev", str(data / "test.tsv"),
                 "--out-dir", str(run_dir),
                 "--src-vocab", str(data / "src.vocab"),
                 "--tgt-vocab", str(data / "tgt.vocab"),
                 "--context-mode", "prev", "--n-layers", "1", "--n-heads", "2",
                 "--d-model", "32", "--d-ff", "64", "--dropout", "0.0",
                 "--max-len", "24", "--warmup", "20", "--token-budget", "400",
                 "--max-steps", "60", "--checkpoint-every", "30",
                 "--quiet", "--seed", "5"]) == 0
    hyp = root / "hyp.txt"
    ref = root / "ref.txt"
    assert main(["translate", "--model", str(run_dir / "best.ckpt"),
                 "--data", str(data / "test.tsv"),
                 "--src-vocab", str(data / "src.vocab"),
                 "--tgt-vocab", str(data / "tgt.vocab"),
                 "--output", str(hyp), "--refs-out", str(ref),
                 "--seed", "0"]) == 0
    return {"root": root, "data": data, "run": run_dir, "hyp": hyp, "ref": ref}


# ---------------------------------------------------------------------------
# basic dispatch and exit codes
# ---------------------------------------------------------------------------


def test_no_subcommand_is_a_validation_error():
    assert main([]) == 2


def test_unknown_flag_is_a_validation_error():
    assert main(["bleu", "--hyp", "x", "--ref", "y", "--frobnicate"]) == 2


def test_missing_file_is_a_validation_error(tmp_path, capsys):
    code, _, err = run(capsys, "bleu", "--hyp", str(tmp_path / "absent"),
                       "--ref", str(tmp_path / "absent"))
    assert code == 2
    assert "absent" in err


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "ctxnmt", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ctxnmt" in proc.stdout


# ---------------------------------------------------------------------------
# bleu / compare
# ---------------------------------------------------------------------------


def test_bleu_identity_prints_100(tmp_path, capsys):
    text = "the cat sat on the mat .\nit fell down the stairs .\n"
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text(text)
    ref.write_text(text)
    code, out, _ = run(capsys, "bleu", "--hyp", str(hyp), "--ref", str(ref))
    assert code == 0
    assert out.splitlines()[0] == "100.00"


def test_bleu_non_utf8_hypothesis_is_a_validation_error(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_bytes(b"the cat\nsat \xff\n")
    ref.write_text("the cat\nsat on\n")
    code, _, err = run(capsys, "bleu", "--hyp", str(hyp), "--ref", str(ref))
    assert code == 2
    assert f"{hyp}:2: not valid UTF-8" in err


def test_compare_identical_systems_exits_1(tmp_path, capsys):
    text = "\n".join("a b c d e" for _ in range(30)) + "\n"
    for name in ("a.txt", "b.txt", "r.txt"):
        (tmp_path / name).write_text(text)
    code, out, _ = run(capsys, "compare", "--baseline", str(tmp_path / "a.txt"),
                       "--candidate", str(tmp_path / "b.txt"),
                       "--ref", str(tmp_path / "r.txt"), "--seed", "0")
    assert code == 1
    assert "not significant" in out


def test_compare_clear_improvement_exits_0(tmp_path, capsys):
    refs = [f"w{i} w{i + 1} w{i + 2} w{i + 3} ." for i in range(50)]
    (tmp_path / "ref.txt").write_text("\n".join(refs) + "\n")
    (tmp_path / "good.txt").write_text("\n".join(refs) + "\n")
    rotated = [" ".join(r.split()[2:] + r.split()[:2]) for r in refs]
    (tmp_path / "bad.txt").write_text("\n".join(rotated) + "\n")
    code, out, _ = run(capsys, "compare", "--baseline", str(tmp_path / "bad.txt"),
                       "--candidate", str(tmp_path / "good.txt"),
                       "--ref", str(tmp_path / "ref.txt"), "--seed", "0")
    assert code == 0
    assert "significant" in out


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------


def test_grad_check_passes_and_prints_max_err(capsys):
    code, out, _ = run(capsys, "grad-check", "--checks", "attention",
                       "gated_fusion", "--seeds", "1")
    assert code == 0
    assert "max rel err" in out
    assert "< 1e-04" in out


def test_grad_check_empty_checks_is_a_validation_error(capsys):
    code, _, err = run(capsys, "grad-check", "--checks")
    assert code == 2
    assert "--checks" in err


def test_grad_check_impossible_threshold_is_numeric_failure(capsys):
    code, out, _ = run(capsys, "grad-check", "--checks", "attention",
                       "--seeds", "1", "--threshold", "1e-18")
    assert code == 3
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# gen-synthetic
# ---------------------------------------------------------------------------


def test_gen_synthetic_outputs_and_manifest(env):
    data = env["data"]
    for name in ("train.tsv", "test.tsv", "train.annotations", "test.annotations",
                 "src.vocab", "tgt.vocab", "manifest.json"):
        assert (data / name).exists(), name
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "gen-synthetic"
    assert manifest["seed"] == 13
    assert manifest["config"]["train_size"] == 150
    assert len(manifest["outputs"]) == 6


def test_gen_synthetic_reruns_bit_identical(env, tmp_path):
    again = tmp_path / "again"
    assert main(["gen-synthetic", "--out-dir", str(again), "--train-size", "150",
                 "--test-size", "30", "--noun-inventory", "8",
                 "--distractor-prob", "0.5", "--seed", "13"]) == 0
    for name in ("train.tsv", "test.tsv", "test.annotations"):
        assert (again / name).read_bytes() == (env["data"] / name).read_bytes()


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_file_fills_flags_and_explicit_flags_win(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("train_size=40\ntest_size=10\nnoun_inventory=8\nseed=13\n")
    out_a = tmp_path / "a"
    assert main(["gen-synthetic", "--out-dir", str(out_a),
                 "--config", str(cfg)]) == 0
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["config"]["train_size"] == 40

    out_b = tmp_path / "b"
    assert main(["gen-synthetic", "--out-dir", str(out_b), "--config", str(cfg),
                 "--train-size", "25"]) == 0
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["config"]["train_size"] == 25
    assert manifest["config"]["test_size"] == 10


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_flag=1\n")
    code, _, err = run(capsys, "gen-synthetic", "--out-dir", str(tmp_path / "x"),
                       "--config", str(cfg))
    assert code == 2
    assert "not_a_flag" in err


def test_config_file_bad_syntax_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line without equals\n")
    code, _, err = run(capsys, "gen-synthetic", "--out-dir", str(tmp_path / "x"),
                       "--config", str(cfg))
    assert code == 2
    assert "key=value" in err


def test_config_file_non_utf8_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"train_size=40\n# caf\xe9\n")
    code, _, err = run(capsys, "gen-synthetic", "--out-dir", str(tmp_path / "x"),
                       "--config", str(cfg))
    assert code == 2
    assert f"{cfg}:2: not valid UTF-8" in err


def test_config_file_loses_to_an_abbreviated_flag(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("train_size=40\ntest_size=10\nnoun_inventory=8\n")
    out = tmp_path / "a"
    assert main(["gen-synthetic", "--out-dir", str(out), "--config", str(cfg),
                 "--train-si", "25"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train_size"] == 25
    assert manifest["config"]["test_size"] == 10


def test_config_file_supplies_a_required_flag(tmp_path):
    out = tmp_path / "a"
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"out_dir={out}\ntrain_size=5\ntest_size=2\nnoun_inventory=8\n")
    assert main(["gen-synthetic", "--config", str(cfg)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["out_dir"] == str(out)
    assert manifest["config"]["train_size"] == 5


def test_config_file_list_flag_takes_its_values(tmp_path, capsys):
    cfg = tmp_path / "check.cfg"
    cfg.write_text("checks=attention\nseeds=1\n")
    code, out, _ = run(capsys, "grad-check", "--config", str(cfg))
    assert code == 0
    assert out.startswith("attention ")
    assert "gated_fusion" not in out


_CONFIG_LINE = st.one_of(
    st.text(max_size=20),
    st.builds("{}={}".format,
              st.sampled_from(["hyp", "ref", "config", "help", "hy", "seed", "hyp "]),
              st.text(max_size=12)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.text(), st.lists(_CONFIG_LINE, max_size=5).map("\n".join)))
def test_config_file_of_any_text_exits_cleanly(tmp_path, text):
    hyp, ref, cfg = tmp_path / "hyp.txt", tmp_path / "ref.txt", tmp_path / "any.cfg"
    hyp.write_text("a b c d\n")
    ref.write_text("a b c d\n")
    cfg.write_text(text, encoding="utf-8")
    assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref), "--config", str(cfg)]) in (0, 2)


_NON_UTF8_RECORD = b"m0\t0.0\t1.0\t0.95\tthe \xff cat\tthe cat\n"


def _raw_corpus(path, n_good, bad_at, bad=_NON_UTF8_RECORD):
    """n_good valid raw records, with the record `bad` (by default one holding
    the byte 0xff) before each index in bad_at."""
    words = ["the", "cat", "sat", "mat", "dog", "ran", "far", "now"]
    lines = []
    for i in range(n_good):
        if i in bad_at:
            lines.append(bad)
        src = " ".join(words[(i + j) % 8] for j in range(4))
        tgt = " ".join(words[(i + j + 1) % 8] for j in range(4))
        lines.append(f"m{i % 3}\t{i * 2.0}\t{i * 2.0 + 1.5}\t0.95\t{src}\t{tgt}\n"
                     .encode("utf-8"))
    path.write_bytes(b"".join(lines))


def test_prepare_skips_non_utf8_line_within_tolerance(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    _raw_corpus(raw, 20, bad_at={7})
    code, out, err = run(capsys, "prepare", "--input", str(raw),
                         "--out-dir", str(tmp_path / "prep"), "--bpe-merges", "10")
    assert code == 0, err
    assert "read 20 pairs (1 malformed lines skipped)" in out
    assert len((tmp_path / "prep" / "prepared.tsv").read_text().splitlines()) == 20


def test_prepare_non_utf8_lines_over_tolerance_is_a_validation_error(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    _raw_corpus(raw, 8, bad_at={2, 5})
    code, _, err = run(capsys, "prepare", "--input", str(raw),
                       "--out-dir", str(tmp_path / "prep"), "--bpe-merges", "10")
    assert code == 2
    assert "2 of 10 lines malformed" in err and "Traceback" not in err
    assert not (tmp_path / "prep").exists()


_CONNECTOR_RECORDS = [b"m0\t0.0\t1.0\t0.95\tthe cat@@ sat\tthe cat\n",
                      b"m0\t0.0\t1.0\t0.95\tthe cat\tthe @@\n"]


@pytest.mark.parametrize("bad", _CONNECTOR_RECORDS)
def test_prepare_skips_a_token_ending_in_the_connector(tmp_path, capsys, bad):
    # "cat@@ sat" would segment to pieces that detokenize to "catsat"
    raw = tmp_path / "raw.tsv"
    _raw_corpus(raw, 20, bad_at={7}, bad=bad)
    code, out, err = run(capsys, "prepare", "--input", str(raw),
                         "--out-dir", str(tmp_path / "prep"), "--bpe-merges", "10")
    assert code == 0, err
    assert "read 20 pairs (1 malformed lines skipped)" in out
    assert len((tmp_path / "prep" / "prepared.tsv").read_text().splitlines()) == 20


def test_prepare_connector_tokens_over_tolerance_are_a_validation_error(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    _raw_corpus(raw, 8, bad_at={2, 5}, bad=_CONNECTOR_RECORDS[0])
    code, _, err = run(capsys, "prepare", "--input", str(raw),
                       "--out-dir", str(tmp_path / "prep"), "--bpe-merges", "10")
    assert code == 2
    assert "2 of 10 lines malformed" in err and "Traceback" not in err
    assert not (tmp_path / "prep").exists()


def test_prepare_manifest_times_each_phase(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    _raw_corpus(raw, 20, bad_at=set())
    code, _, err = run(capsys, "prepare", "--input", str(raw),
                       "--out-dir", str(tmp_path / "prep"), "--bpe-merges", "10")
    assert code == 0, err
    timings = json.loads((tmp_path / "prep" / "manifest.json").read_text())["timings"]
    assert sorted(timings) == ["apply_bpe", "ingest", "learn_bpe", "vocabularies", "write"]
    assert all(isinstance(s, float) and s >= 0.0 for s in timings.values())


# ---------------------------------------------------------------------------
# train / translate round trip
# ---------------------------------------------------------------------------


def test_train_writes_checkpoints_metrics_manifest(env):
    run_dir = env["run"]
    for name in ("last.ckpt", "best.ckpt", "metrics.tsv", "manifest.json"):
        assert (run_dir / name).exists(), name
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["context_mode"] == "prev"


def test_train_rejects_context_mode_without_contexts(env, tmp_path, capsys):
    stripped = tmp_path / "noctx.tsv"
    lines = (env["data"] / "test.tsv").read_text().splitlines()
    stripped.write_text("".join("\t" + l.split("\t", 1)[1] + "\n" for l in lines))
    code, _, err = run(capsys, "train", "--data", str(stripped),
                       "--out-dir", str(tmp_path / "x"),
                       "--src-vocab", str(env["data"] / "src.vocab"),
                       "--tgt-vocab", str(env["data"] / "tgt.vocab"),
                       "--context-mode", "prev", "--max-steps", "5", "--quiet")
    assert code == 2
    assert "context" in err


def test_train_without_dev_has_no_best_dev_loss(env, tmp_path, capsys):
    code, out, _ = run(capsys, "train", "--data", str(env["data"] / "test.tsv"),
                       "--out-dir", str(tmp_path / "x"),
                       "--src-vocab", str(env["data"] / "src.vocab"),
                       "--tgt-vocab", str(env["data"] / "tgt.vocab"),
                       "--context-mode", "none", "--n-layers", "1", "--d-model", "8",
                       "--d-ff", "16", "--n-heads", "2", "--max-steps", "1", "--quiet")
    assert code == 0
    assert "best dev loss n/a" in out
    assert not (tmp_path / "x" / "best.ckpt").exists()


def test_translate_output_aligns_with_input(env):
    hyp_lines = env["hyp"].read_text().splitlines()
    ref_lines = env["ref"].read_text().splitlines()
    test_lines = (env["data"] / "test.tsv").read_text().splitlines()
    assert len(hyp_lines) == len(ref_lines) == len(test_lines)
    # references are the detokenized target column, in file order
    assert ref_lines == [l.split("\t")[2] for l in test_lines]


def test_translate_rerun_bit_identical(env, tmp_path):
    out = tmp_path / "hyp2.txt"
    assert main(["translate", "--model", str(env["run"] / "best.ckpt"),
                 "--data", str(env["data"] / "test.tsv"),
                 "--src-vocab", str(env["data"] / "src.vocab"),
                 "--tgt-vocab", str(env["data"] / "tgt.vocab"),
                 "--output", str(out), "--seed", "0"]) == 0
    assert out.read_bytes() == env["hyp"].read_bytes()


def test_translate_writes_manifest_beside_output(env):
    manifest_path = env["hyp"].with_name(env["hyp"].name + ".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == "translate"
    assert str(env["hyp"]) in manifest["outputs"][0]


def _rewrite_header(blob, edit):
    n = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + n])
    edit(header)
    new = json.dumps(header).encode()
    return blob[:8] + len(new).to_bytes(4, "little") + new + blob[12 + n:]


@pytest.mark.parametrize("corrupt", [
    lambda b: _rewrite_header(b, lambda h: h["config"].update(bogus=1)),
    lambda b: b[:10],
    lambda b: b[:8] + (len(b) + 100).to_bytes(4, "little") + b[12:],
    lambda b: _rewrite_header(b, lambda h: h.pop("tensors")),
    lambda b: _rewrite_header(b, lambda h: h.update(dtype="garbage")),
    lambda b: _rewrite_header(b, lambda h: h["tensors"][0].pop("offset")),
], ids=["unknown-config-key", "short-length", "length-past-end", "missing-key", "bad-dtype",
        "entry-missing-key"])
def test_translate_corrupt_checkpoint_is_a_validation_error(env, tmp_path, capsys, corrupt):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt((env["run"] / "best.ckpt").read_bytes()))
    code, _, err = run(capsys, "translate", "--model", str(bad),
                       "--data", str(env["data"] / "test.tsv"),
                       "--src-vocab", str(env["data"] / "src.vocab"),
                       "--tgt-vocab", str(env["data"] / "tgt.vocab"),
                       "--output", str(tmp_path / "hyp.txt"))
    assert code == 2
    assert str(bad) in err


@pytest.mark.parametrize("max_out", ["-1", "24"])
def test_translate_max_out_outside_range_is_a_validation_error(env, tmp_path, capsys,
                                                               max_out):
    out = tmp_path / "hyp.txt"
    code, _, err = run(capsys, "translate", "--model", str(env["run"] / "best.ckpt"),
                       "--data", str(env["data"] / "test.tsv"),
                       "--src-vocab", str(env["data"] / "src.vocab"),
                       "--tgt-vocab", str(env["data"] / "tgt.vocab"),
                       "--output", str(out), "--max-out", max_out)
    assert code == 2
    assert "max_out" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["translate", "dump-attention"])
@pytest.mark.parametrize("size", ["0", "-1"])
def test_batch_size_below_one_is_a_validation_error(env, tmp_path, capsys, command, size):
    out = tmp_path / "out.txt"
    code, _, err = run(capsys, command, "--model", str(env["run"] / "best.ckpt"),
                       "--data", str(env["data"] / "test.tsv"),
                       "--src-vocab", str(env["data"] / "src.vocab"),
                       "--tgt-vocab", str(env["data"] / "tgt.vocab"),
                       "--output", str(out), "--batch-size", size)
    assert code == 2
    assert "batch size" in err
    assert not out.exists()


@pytest.mark.parametrize("victim", ["model", "src.vocab", "tgt.vocab"])
def test_translate_refs_out_cannot_overwrite_an_input(env, tmp_path, capsys, victim):
    inputs = {"model": env["run"] / "best.ckpt", "src.vocab": env["data"] / "src.vocab",
              "tgt.vocab": env["data"] / "tgt.vocab"}
    for name, path in inputs.items():  # private copies, so a failure clobbers nothing shared
        (tmp_path / name).write_bytes(path.read_bytes())
    out = tmp_path / "hyp.txt"
    code, _, err = run(capsys, "translate", "--model", str(tmp_path / "model"),
                       "--data", str(env["data"] / "test.tsv"),
                       "--src-vocab", str(tmp_path / "src.vocab"),
                       "--tgt-vocab", str(tmp_path / "tgt.vocab"),
                       "--output", str(out), "--refs-out", str(tmp_path / victim))
    assert code == 2
    assert "overwrite" in err
    assert (tmp_path / victim).read_bytes() == inputs[victim].read_bytes()
    assert not out.exists()


def test_translate_non_utf8_data_is_a_validation_error(env, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    lines = (env["data"] / "test.tsv").read_bytes().splitlines(keepends=True)
    bad.write_bytes(lines[0] + b"\xff\xfe" + lines[1])
    code, _, err = run(capsys, "translate", "--model", str(env["run"] / "best.ckpt"),
                       "--data", str(bad),
                       "--src-vocab", str(env["data"] / "src.vocab"),
                       "--tgt-vocab", str(env["data"] / "tgt.vocab"),
                       "--output", str(tmp_path / "hyp.txt"))
    assert code == 2
    assert f"{bad}:2: not valid UTF-8" in err


def test_translate_non_utf8_vocab_is_a_validation_error(env, tmp_path, capsys):
    bad = tmp_path / "tgt.vocab"
    bad.write_bytes((env["data"] / "tgt.vocab").read_bytes() + b"\xff\n")
    code, _, err = run(capsys, "translate", "--model", str(env["run"] / "best.ckpt"),
                       "--data", str(env["data"] / "test.tsv"),
                       "--src-vocab", str(env["data"] / "src.vocab"),
                       "--tgt-vocab", str(bad),
                       "--output", str(tmp_path / "hyp.txt"))
    assert code == 2
    assert "not valid UTF-8" in err and "Traceback" not in err
    assert not (tmp_path / "hyp.txt").exists()


def test_train_reports_context_only_truncation(env, tmp_path, capsys):
    long_ctx = tmp_path / "longctx.tsv"
    lines = (env["data"] / "train.tsv").read_text().splitlines()[:20]
    long_ctx.write_text("".join(" ".join([src] * 8) + "\t" + src + "\t" + tgt + "\n"
                                for src, tgt in (l.split("\t")[1:] for l in lines)))
    code, out, _ = run(capsys, "train", "--data", str(long_ctx),
                       "--out-dir", str(tmp_path / "x"),
                       "--src-vocab", str(env["data"] / "src.vocab"),
                       "--tgt-vocab", str(env["data"] / "tgt.vocab"),
                       "--context-mode", "prev", "--n-layers", "1", "--d-model", "8",
                       "--d-ff", "16", "--n-heads", "2", "--max-len", "24",
                       "--max-steps", "1", "--quiet")
    assert code == 0
    assert "encoding: 0 unknown tokens, 20 truncated sequences" in out


def test_bleu_on_model_output_runs(env, capsys):
    code, out, _ = run(capsys, "bleu", "--hyp", str(env["hyp"]),
                       "--ref", str(env["ref"]))
    assert code == 0
    first = out.splitlines()[0]
    assert 0.0 <= float(first) <= 100.0


# ---------------------------------------------------------------------------
# attention dumping and analysis
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def records_path(env):
    path = env["root"] / "att.jsonl"
    assert main(["dump-attention", "--model", str(env["run"] / "best.ckpt"),
                 "--data", str(env["data"] / "test.tsv"),
                 "--src-vocab", str(env["data"] / "src.vocab"),
                 "--tgt-vocab", str(env["data"] / "tgt.vocab"),
                 "--output", str(path), "--seed", "0"]) == 0
    return path


def test_dump_attention_record_shape(env, records_path):
    lines = records_path.read_text().splitlines()
    test_lines = (env["data"] / "test.tsv").read_text().splitlines()
    assert len(lines) == len(test_lines)
    first = json.loads(lines[0])
    ctx_words = test_lines[0].split("\t")[0].split()
    assert first["ctx_tokens"] == ["<bos>"] + ctx_words + ["<eos>"]
    assert first["src_tokens"][-1] == "<eos>"
    assert len(first["weights"]) == len(first["src_tokens"])


def test_dump_attention_requires_gated_model(env, tmp_path, capsys):
    plain_dir = tmp_path / "plain"
    assert main(["train", "--data", str(env["data"] / "train.tsv"),
                 "--out-dir", str(plain_dir),
                 "--src-vocab", str(env["data"] / "src.vocab"),
                 "--tgt-vocab", str(env["data"] / "tgt.vocab"),
                 "--context-mode", "none", "--n-layers", "1", "--n-heads", "2",
                 "--d-model", "16", "--d-ff", "32", "--dropout", "0.0",
                 "--max-len", "24", "--max-steps", "2", "--checkpoint-every", "2",
                 "--quiet", "--seed", "0"]) == 0
    code, _, err = run(capsys, "dump-attention",
                       "--model", str(plain_dir / "last.ckpt"),
                       "--data", str(env["data"] / "test.tsv"),
                       "--src-vocab", str(env["data"] / "src.vocab"),
                       "--tgt-vocab", str(env["data"] / "tgt.vocab"),
                       "--output", str(tmp_path / "att.jsonl"))
    assert code == 2
    assert "gated" in err


def test_analyze_useful_mass(records_path, capsys):
    code, out, _ = run(capsys, "analyze", "useful-mass", "--records",
                       str(records_path))
    assert code == 0
    assert "mean useful mass" in out


def test_analyze_agreement(env, records_path, capsys):
    code, out, _ = run(capsys, "analyze", "agreement", "--records",
                       str(records_path), "--annotations",
                       str(env["data"] / "test.annotations"),
                       "--min-nouns", "2", "--seed", "0")
    assert code == 0
    assert "attention" in out
    assert "first" in out


def test_analyze_confusion(env, records_path, capsys):
    code, out, _ = run(capsys, "analyze", "confusion", "--records",
                       str(records_path), "--annotations",
                       str(env["data"] / "test.annotations"),
                       "--heuristic", "last", "--seed", "0")
    assert code == 0
    assert "last right" in out


@pytest.mark.parametrize("bad_line", [b"{not json\n", b'{"example_id": "0"}\n',
                                      b"[1, 2]\n", b"\xff\n"],
                         ids=["json", "missing-key", "not-an-object", "not-utf8"])
def test_analyze_malformed_records_is_a_validation_error(records_path, tmp_path, capsys,
                                                         bad_line):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(records_path.read_bytes().splitlines(keepends=True)[0] + bad_line)
    code, _, err = run(capsys, "analyze", "useful-mass", "--records", str(bad))
    assert code == 2
    assert f"{bad}:2:" in err


def test_analyze_heatmap(records_path, tmp_path, capsys):
    out_svg = tmp_path / "h.svg"
    code, out, _ = run(capsys, "analyze", "heatmap", "--records",
                       str(records_path), "--example-id", "1",
                       "--output", str(out_svg))
    assert code == 0
    assert out_svg.read_text().startswith("<svg")


def test_analyze_heatmap_unknown_id(records_path, tmp_path, capsys):
    code, _, err = run(capsys, "analyze", "heatmap", "--records",
                       str(records_path), "--example-id", "nope",
                       "--output", str(tmp_path / "h.svg"))
    assert code == 2
    assert "nope" in err


def test_analyze_curves_writes_series(env, records_path, tmp_path, capsys):
    out_dir = tmp_path / "curves"
    code, _, _ = run(capsys, "analyze", "curves", "--records", str(records_path),
                     "--out-dir", str(out_dir),
                     "--bleu-hyp", str(env["hyp"]), "--bleu-ref", str(env["ref"]))
    assert code == 0
    names = {p.name for p in out_dir.iterdir()}
    assert "mass_vs_source_length.csv" in names
    assert "bleu_vs_source_length.csv" in names
    assert "manifest.json" in names


# ---------------------------------------------------------------------------
# build-testset
# ---------------------------------------------------------------------------


def test_build_testset_malformed_annotations_is_a_validation_error(env, tmp_path, capsys):
    bad = tmp_path / "bad.annotations"
    fields = (env["data"] / "test.annotations").read_text().splitlines()[0].split("\t")
    fields[2] = "three"  # the pronoun index is not an integer
    bad.write_text("\t".join(fields) + "\n")
    code, _, err = run(capsys, "build-testset", "--data", str(env["data"] / "test.tsv"),
                       "--annotations", str(bad), "--out-dir", str(tmp_path / "subset"))
    assert code == 2
    assert f"{bad}:1: malformed annotation" in err


def test_build_testset_filters_and_renumbers(env, tmp_path, capsys):
    out_dir = tmp_path / "subset"
    code, out, _ = run(capsys, "build-testset", "--data",
                       str(env["data"] / "test.tsv"),
                       "--annotations", str(env["data"] / "test.annotations"),
                       "--out-dir", str(out_dir), "--min-nouns", "2")
    assert code == 0
    subset = (out_dir / "subset.tsv").read_text().splitlines()
    anns = (out_dir / "subset.annotations").read_text().splitlines()
    assert len(subset) == len(anns)
    assert 0 < len(subset) < 30
    # renumbered ids line up with the subset file rows
    assert [a.split("\t")[0] for a in anns] == [str(i) for i in range(len(anns))]
    # every kept example really has a distractor (two context nouns)
    assert all(len(line.split("\t")[0].split()) == 9 for line in subset)

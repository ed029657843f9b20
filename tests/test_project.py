from __future__ import annotations

import re
from pathlib import Path

import pytest

from helpers import NEEDED_FIELDS, UNREAD_FIELDS, bowl_job_conf, write_synthetic_project
from jobtuner.cli import main
from jobtuner.errors import (
    BadValueError,
    CrossValidationError,
    DomainError,
    MissingFileError,
    MissingKeyError,
    TunerError,
)
from jobtuner.executors.base import ClusterEnv
from jobtuner.history import read_manifest, write_manifest
from jobtuner.project import (
    ENV_FILE,
    load_project,
    parse_env_file,
    parse_job_file,
    parse_kv_file,
    scaffold,
)
from jobtuner.session import job_hash

ENV_TEXT = """\
# cluster endpoint
master=192.168.1.10
port=22
user=hadoop
key_path=/keys/id_ed25519
remote_workdir=/tmp/staging
hadoop_home=/opt/hadoop
history_log_dir=/var/log/hadoop-yarn/aggregated
"""


# --- env file ------------------------------------------------------------------

def test_parse_env_file_happy_path():
    env = parse_env_file(ENV_TEXT)
    assert env.master == "192.168.1.10"
    assert env.port == 22
    assert env.user == "hadoop"
    assert env.history_log_dir == "/var/log/hadoop-yarn/aggregated"


def test_parse_env_missing_master():
    text = "\n".join(l for l in ENV_TEXT.splitlines() if not l.startswith("master="))
    with pytest.raises(MissingKeyError) as exc:
        parse_env_file(text)
    assert exc.value.key == "master"


def test_parse_env_bad_port():
    with pytest.raises(BadValueError) as exc:
        parse_env_file(ENV_TEXT.replace("port=22", "port=ssh"))
    assert exc.value.key == "port"


def test_parse_env_out_of_range_port():
    with pytest.raises(BadValueError):
        parse_env_file(ENV_TEXT.replace("port=22", "port=99999"))


def test_env_and_job_errors_name_their_file():
    with pytest.raises(BadValueError, match="'port' in HadoopEnv.txt"):
        parse_env_file(ENV_TEXT.replace("port=22", "port=ssh"))
    with pytest.raises(BadValueError, match="'budget' in job.conf: '3.5' is not an integer"):
        parse_job_file(bowl_job_conf() + "budget=3.5\n")
    remote = "executor=remote\njar=app.jar\nargs=/in /out\n"
    assert parse_job_file(remote + "cleanup_output=no\n")[0].cleanup_output is False
    with pytest.raises(BadValueError, match="'cleanup_output' in job.conf"):
        parse_job_file(remote + "cleanup_output=maybe\n")
    # the last arg is the output path that cleanup_output removes: none, or an empty one
    for job in ("executor=remote\njar=app.jar\n", remote.replace("/out", '""')):
        with pytest.raises(BadValueError, match="'job' in job.conf: cleanup_output needs args: "
                                                "the last is the output path$"):
            parse_job_file(job + "cleanup_output=true\n")
    with pytest.raises(BadValueError, match="^bad value for key 'args' in job.conf: "
                                            "No closing quotation$"):
        parse_job_file(remote.replace("/out", "'/out"))
    with pytest.raises(BadValueError, match="'job' in job.conf: repetitions must be >= 1"):
        parse_job_file(bowl_job_conf(repetitions=0))
    with pytest.raises(BadValueError, match="'surface' in job.conf: noise_sd_s must be >= 0"):
        parse_job_file(bowl_job_conf(noise_sd_s=-1))
    with pytest.raises(BadValueError, match="'family' in job.conf: must be one of bowl,"):
        parse_job_file(bowl_job_conf(family="cube"))
    with pytest.raises(BadValueError, match="'weights' in job.conf: '50,x' is not a comma-"):
        parse_job_file(bowl_job_conf(weights="50,x"))


# --- job file -------------------------------------------------------------------

def test_parse_job_remote():
    job, kind, surface, defaults = parse_job_file(
        "executor=remote\njar=app.jar\nmain_entry=WordCount\n"
        "args=/in /out\ntimeout_s=120\nrepetitions=2\ncleanup_output=true\n"
    )
    assert kind == "remote"
    assert job.artifact == "app.jar"
    assert job.static_args == ("/in", "/out")
    assert job.repetitions == 2
    assert job.cleanup_output is True
    assert surface is None


def test_parse_job_unknown_executor():
    with pytest.raises(BadValueError):
        parse_job_file("executor=quantum\n")


def test_parse_job_local_requires_command():
    with pytest.raises(MissingKeyError):
        parse_job_file("executor=local\n")


def test_parse_job_synthetic_builds_surface():
    _, kind, surface, _ = parse_job_file(bowl_job_conf(noise_sd_s=2.0, surface_seed=7))
    assert kind == "synthetic"
    assert surface.family == "bowl"
    assert surface.noise_sd_s == 2.0
    assert surface.seed == 7


def test_parse_job_tune_defaults():
    # a remote job draws no noise, so the seed key older versions read is ignored
    _, _, _, defaults = parse_job_file(
        "executor=remote\njar=app.jar\nstrategy=compass\nbudget=40\nseed=3\n"
    )
    assert defaults == {"strategy": "compass", "budget": 40}


# each synthetic family's job file, and each other executor kind's, with every key it reads
FULL_JOB_FILES = {
    "bowl": "executor=synthetic\nfamily=bowl\nbase_s=100\nweights=50,80\noptimum=0.7,0.3\n"
            "noise_sd_s=1\nsurface_seed=7\n",
    "monotone_plane_basin": "executor=synthetic\nfamily=monotone_plane_basin\nbase_s=60\n"
                            "weights=10,20\nnoise_sd_s=1\nsurface_seed=7\n",
    "rosenbrock": "executor=synthetic\nfamily=rosenbrock\nbase_s=50\nnoise_sd_s=1\n"
                  "surface_seed=7\n",
    "lookup_table": "executor=synthetic\nfamily=lookup_table\nbase_s=100\nnoise_sd_s=1\n"
                    "surface_seed=7\ntable=0,0=9;1,1=2\n",
    "local": "executor=local\ncommand=run {a}\nseed=3\n",
    "remote": "executor=remote\njar=app.jar\nmain_entry=WordCount\nargs=/in /out\n"
              "cleanup_output=true\nseed=3\n",
}
RUN_KEYS = "timeout_s=60\nrepetitions=2\nstrategy=compass\nbudget=40\n"


@pytest.mark.parametrize("name", FULL_JOB_FILES)
def test_each_kind_loads_every_key_it_reads(name):
    job, kind, surface, defaults = parse_job_file(FULL_JOB_FILES[name] + RUN_KEYS)
    assert (surface.family if surface else kind) == name
    assert (job.timeout_s, job.repetitions) == (60.0, 2)
    assert defaults == {"strategy": "compass", "budget": 40}
    assert (surface is not None) == (kind == "synthetic")


def write_full_project(root: Path, name: str) -> Path:
    """A project of two parameters whose job.conf is FULL_JOB_FILES[name] with RUN_KEYS."""
    root.mkdir()
    (root / "params.conf").write_text("a int min=1 max=4 step=1\nb int min=1 max=2 step=1\n")
    (root / "job.conf").write_text(FULL_JOB_FILES[name] + RUN_KEYS)
    if name == "remote":
        (root / ENV_FILE).write_text(ENV_TEXT)
    return root


# the job_hash of each file of FULL_JOB_FILES: resume refuses a session whose manifest
# records another, so a change that moves the hash of a valid file strands its sessions
JOB_HASHES = {
    "bowl": "57c2dc6c17c0e4ba38d6e333e5a877b38313c99fc2fbcb85e42decb7a857d77a",
    "monotone_plane_basin": "cee90c4327e6a196803d7da7a273f6a0c15a899347016691d325c596879c5d8f",
    "rosenbrock": "7a5fed7103861db1f76da23e4c5cdc9d9821197d95163a8122a18110fe428377",
    "lookup_table": "fcde4c4b2fdaf42ed47f5e16bfb554db65696da3cd1d8c62bb167cc88e434aa3",
    "local": "449debcececc99b7e43ffd9ee0f10ed4c00285b20185747ab0ef99b8ef7fd64d",
    "remote": "c1b28b6a71e5368f59084fb40f9946501479b809ff6ede718881801c02f763a3",
}


@pytest.mark.parametrize("name", FULL_JOB_FILES)
def test_a_valid_job_file_keeps_the_job_hash_its_sessions_resume_under(tmp_path, name):
    assert job_hash(load_project(write_full_project(tmp_path / "p", name))) == JOB_HASHES[name]


# a shape key as a job file writes it
SHAPE_LINES = {"weights": "weights=50,80\n", "optimum": "optimum=0.7,0.3\n",
               "table": "table=0,0=9;1,1=2\n"}


def refused_on_load_and_by_tune(root: Path, message: str) -> None:
    with pytest.raises(BadValueError, match=message):
        load_project(root)
    assert main(["tune", "--dir", str(root), "--strategy", "grid", "--budget", "2"]) == 2
    assert not (root / "history").exists()


@pytest.mark.parametrize("family, field", UNREAD_FIELDS)
def test_a_job_file_giving_a_family_a_shape_key_it_does_not_read_is_refused(tmp_path, family, field):
    root = write_full_project(tmp_path / "p", family)
    (root / "job.conf").write_text(FULL_JOB_FILES[family] + SHAPE_LINES[field])
    refused_on_load_and_by_tune(root, f"^bad value for key 'surface' in job.conf: "
                                      f"a {family} surface reads no {field}$")


@pytest.mark.parametrize("family, field", NEEDED_FIELDS)
def test_a_job_file_missing_a_shape_key_its_family_reads_is_refused(tmp_path, family, field):
    root = write_full_project(tmp_path / "p", family)
    lines = FULL_JOB_FILES[family].splitlines(keepends=True)
    (root / "job.conf").write_text("".join(l for l in lines if not l.startswith(f"{field}=")))
    refused_on_load_and_by_tune(root, f"^bad value for key 'surface' in job.conf: "
                                      f"a {family} surface needs {field}$")


# each kind with a key that only another kind reads; the synthetic job is a bowl
FOREIGN_KEYS = [
    ("local", "args=--extra 1"), ("local", "cleanup_output=true"), ("local", "main_entry=Foo"),
    ("local", "jar=x.jar"), ("local", "family=bowl"), ("local", "base_s=oops"),
    ("remote", "command=ls"), ("remote", "family=bowl"), ("remote", "surface_seed=1"),
    ("synthetic", "jar=x.jar"), ("synthetic", "command=ls"), ("synthetic", "args=/in /out"),
    ("synthetic", "main_entry=Foo"), ("synthetic", "cleanup_output=true"),
]


@pytest.mark.parametrize("kind, line", FOREIGN_KEYS)
def test_a_key_another_executor_kind_reads_is_refused_naming_it_and_its_file(kind, line):
    key = line.partition("=")[0]
    with pytest.raises(BadValueError, match=f"^bad value for key '{key}' in two.conf: unknown key$"):
        parse_job_file(FULL_JOB_FILES["bowl" if kind == "synthetic" else kind] + line + "\n",
                       "two.conf")


def test_a_synthetic_job_file_holding_a_seed_is_refused(tmp_path):
    # older versions read it as an override of surface_seed, the one noise seed now
    params = "a int min=1 max=4 step=1\nb int min=1 max=2 step=1\n"
    with pytest.raises(BadValueError, match="^bad value for key 'seed' in job.conf: "
                                            "the noise seed is surface_seed"):
        write_synthetic_project(tmp_path / "p", params, bowl_job_conf() + "seed=3\n")


def remote_project_of_two_jobs(d: Path) -> Path:
    """A remote project whose jobs.conf lists job.conf and two.conf."""
    d.mkdir()
    (d / "params.conf").write_text("a int min=1 max=4 step=1\n")
    for job in ("job.conf", "two.conf"):
        (d / job).write_text("executor=remote\njar=app.jar\nrepetitions=1\n")
    (d / "jobs.conf").write_text("job.conf\ntwo.conf\n")
    (d / ENV_FILE).write_text(ENV_TEXT)
    return d


# each key=value file, with a key it holds
KV_FILES = {"job.conf": "repetitions", "two.conf": "repetitions", ENV_FILE: "port",
            "history/session.conf": "budget"}


@pytest.mark.parametrize("name", KV_FILES)
def test_a_key_written_twice_is_refused_naming_it_and_its_file(tmp_path, name):
    d = remote_project_of_two_jobs(tmp_path / "p")
    (d / "history").mkdir()  # as a session's lock makes it
    write_manifest(d, {"strategy": "grid", "budget": 5})
    load_project(d)
    read_manifest(d)
    # a later line that writes the key again, as an edit by appending would
    key = KV_FILES[name]
    (d / name).write_text((d / name).read_text() + f"{key}=2\n")
    with pytest.raises(BadValueError, match=f"^bad value for key '{key}' in "
                                            f"{Path(name).name}: written twice$"):
        load_project(d)
        read_manifest(d)


# each project key=value file, with a misspelling of a key it reads
MISSPELLED = {"job.conf": "repetitons=5", "two.conf": "cleanup_ouput=true",
              ENV_FILE: "key_pth=/k"}


@pytest.mark.parametrize("name", MISSPELLED)
def test_a_misspelled_key_is_refused_naming_it_and_its_file(tmp_path, name):
    d = remote_project_of_two_jobs(tmp_path / "p")
    load_project(d)
    line = MISSPELLED[name]
    (d / name).write_text((d / name).read_text() + line + "\n")
    key = line.partition("=")[0]
    with pytest.raises(BadValueError, match=f"^bad value for key '{key}' in {name}: unknown key$"):
        load_project(d)
    assert main(["tune", "--dir", str(d), "--strategy", "grid", "--budget", "2"]) == 2
    assert not (d / "history").exists()


@pytest.mark.parametrize("name", ["params.conf", "job.conf", "two.conf", "jobs.conf", ENV_FILE])
def test_a_file_saved_with_a_byte_order_mark_loads_as_without_it(tmp_path, name):
    # some editors start a UTF-8 file with U+FEFF, which is no part of its first key
    d = remote_project_of_two_jobs(tmp_path / "p")
    unmarked = load_project(d)
    (d / name).write_bytes(b"\xef\xbb\xbf" + (d / name).read_bytes())
    assert load_project(d) == unmarked


def test_a_marked_file_that_is_not_utf8_names_its_offset_from_the_start_of_the_file(tmp_path):
    d = remote_project_of_two_jobs(tmp_path / "p")
    (d / "params.conf").write_bytes(b"\xef\xbb\xbf# \xe9\n" + (d / "params.conf").read_bytes())
    with pytest.raises(TunerError, match="^params.conf is not UTF-8: byte 0xe9 at offset 5$"):
        load_project(d)


# --- load_project ------------------------------------------------------------------

def test_load_synthetic_happy_path(tmp_path):
    project = write_synthetic_project(
        tmp_path / "p", "a int min=1 max=4 step=1\nb int min=1 max=2 step=1\n",
        bowl_job_conf(),
    )
    assert project.executor_kind == "synthetic"
    assert project.space.dimension == 2
    assert project.env is None


def test_load_missing_params(tmp_path):
    d = tmp_path / "p"
    d.mkdir()
    (d / "job.conf").write_text(bowl_job_conf())
    with pytest.raises(MissingFileError) as exc:
        load_project(d)
    assert exc.value.name == "params.conf"


def test_load_remote_missing_env_file(tmp_path):
    d = tmp_path / "p"
    d.mkdir()
    (d / "params.conf").write_text("a int min=1 max=4 step=1\n")
    (d / "job.conf").write_text("executor=remote\njar=app.jar\n")
    with pytest.raises(MissingFileError) as exc:
        load_project(d)
    assert exc.value.name == ENV_FILE


def test_load_local_with_undeclared_placeholder(tmp_path):
    d = tmp_path / "p"
    d.mkdir()
    (d / "params.conf").write_text("a int min=1 max=4 step=1\n")
    (d / "job.conf").write_text("executor=local\ncommand=./job.sh {nope}\n")
    with pytest.raises(CrossValidationError):
        load_project(d)
    # a jobs.conf entry is checked as job.conf is, so no listed job runs first
    (d / "job.conf").write_text("executor=local\ncommand=touch ran_{a}\n")
    (d / "bad.conf").write_text("executor=local\ncommand=touch ran_{nope}\n")
    (d / "jobs.conf").write_text("job.conf\nbad.conf\n")
    with pytest.raises(CrossValidationError, match="^bad.conf command references .*: nope$"):
        load_project(d)
    assert main(["project", "--dir", str(d)]) == 2
    assert not list(d.glob("ran_*"))


def test_load_synthetic_dimension_mismatch(tmp_path):
    d = tmp_path / "p"
    d.mkdir()
    (d / "params.conf").write_text("a int min=1 max=4 step=1\n")
    (d / "job.conf").write_text(bowl_job_conf())  # 2-d surface over a 1-d space
    with pytest.raises(CrossValidationError):
        load_project(d)


def test_load_is_read_only(tmp_path):
    d = tmp_path / "p"
    write_synthetic_project(d, "a int min=1 max=4 step=1\nb int min=1 max=2 step=1\n",
                            bowl_job_conf())
    snapshot = {p.name: p.read_bytes() for p in d.rglob("*") if p.is_file()}
    load_project(d)
    after = {p.name: p.read_bytes() for p in d.rglob("*") if p.is_file()}
    assert snapshot == after


def test_load_jobs_list(tmp_path):
    d = tmp_path / "p"
    d.mkdir()
    (d / "params.conf").write_text("a int min=1 max=4 step=1\n")
    (d / "job.conf").write_text("executor=local\ncommand=./one.sh {a}\n")
    (d / "job_two.conf").write_text("executor=local\ncommand=./two.sh\n")
    (d / "jobs.conf").write_text("# batch\njob.conf\njob_two.conf\n")
    project = load_project(d)
    assert len(project.jobs) == 2
    assert project.jobs[1].artifact == "./two.sh"


def test_load_jobs_list_missing_entry(tmp_path):
    d = tmp_path / "p"
    d.mkdir()
    (d / "params.conf").write_text("a int min=1 max=4 step=1\n")
    (d / "job.conf").write_text("executor=local\ncommand=./one.sh\n")
    (d / "jobs.conf").write_text("job.conf\nghost.conf\n")
    with pytest.raises(MissingFileError):
        load_project(d)


def test_errors_in_a_listed_job_file_name_it(tmp_path):
    d = tmp_path / "p"
    d.mkdir()
    (d / "params.conf").write_text("a int min=1 max=4 step=1\n")
    (d / "job.conf").write_text("executor=local\ncommand=./one.sh\n")
    (d / "two.conf").write_text("executor=local\ncommand=./two.sh\nrepetitions=abc\n")
    (d / "jobs.conf").write_text("job.conf\ntwo.conf\n")
    with pytest.raises(BadValueError, match="'repetitions' in two.conf: 'abc' is not an integer"):
        load_project(d)


def test_listed_synthetic_jobs_share_the_surface_of_job_conf(tmp_path):
    params = "a int min=1 max=4 step=1\nb int min=1 max=2 step=1\n"
    d = tmp_path / "p"
    write_synthetic_project(d, params, bowl_job_conf())
    (d / "same.conf").write_text(bowl_job_conf(repetitions=3))
    (d / "jobs.conf").write_text("job.conf\nsame.conf\n")
    assert [job.repetitions for job in load_project(d).jobs] == [1, 3]
    # one executor measures every run on job.conf's surface, so another is refused
    (d / "big.conf").write_text(bowl_job_conf(base_s=5000))
    (d / "jobs.conf").write_text("job.conf\nbig.conf\n")
    with pytest.raises(CrossValidationError, match="^big.conf: surface differs from job.conf's$"):
        load_project(d)
    (d / "local.conf").write_text("executor=local\ncommand=./one.sh\n")
    (d / "jobs.conf").write_text("job.conf\nlocal.conf\n")
    with pytest.raises(CrossValidationError, match="^local.conf: executor 'local' differs from "
                                                   "project executor 'synthetic'$"):
        load_project(d)
    (d / "jobs.conf").write_text("# every job commented out\n\n")
    with pytest.raises(CrossValidationError, match="^jobs.conf lists no jobs$"):
        load_project(d)


def test_load_lookup_table_project(tmp_path):
    job = "executor=synthetic\nfamily=lookup_table\nbase_s=1\ntable=0,0=9; 0,1=4.5;1,1=2\n"
    project = write_synthetic_project(tmp_path / "p", "a int min=1 max=4 step=1\n"
                                      "b int min=1 max=2 step=1\n", job)
    assert project.surface.table == (((0.0, 0.0), 9.0), ((0.0, 1.0), 4.5), ((1.0, 1.0), 2.0))
    # an empty cell, between two ';' or at either end, is passed over
    (tmp_path / "p" / "job.conf").write_text(job.replace("=0,0=9; 0,1=4.5;", "=;0,0=9; 0,1=4.5;; ;")
                                             .replace("1,1=2", "1,1=2;"))
    assert load_project(tmp_path / "p").surface.table == project.surface.table
    (tmp_path / "p" / "job.conf").write_text(job.replace("1,1=2", "1,1"))
    with pytest.raises(BadValueError, match="'table' in job.conf: cell '1,1' lacks '='"):
        load_project(tmp_path / "p")


@pytest.mark.parametrize("cell", ["0,x=9", "0,1=nine", "=9"],
                         ids=["coordinate", "seconds", "no_coordinate"])
def test_a_table_cell_that_is_no_number_is_refused_under_table(cell):
    job = f"executor=synthetic\nfamily=lookup_table\nbase_s=1\ntable=0,0=9;{cell}\n"
    with pytest.raises(BadValueError, match=f"^bad value for key 'table' in job.conf: cell "
                                            f"'{cell}' holds a value that is no number$"):
        parse_job_file(job)


X_FLOAT = "x float min=0 max=1 step=0.1\n"
X_BOWL = "executor=synthetic\nfamily=bowl\nbase_s=100\nweights=50\noptimum=0.5\n"
X_TABLE = "executor=synthetic\nfamily=lookup_table\nbase_s=1\n"


def x_job(key: str, raw: str) -> str:
    """A job file for one parameter x whose key reads raw, its other numbers valid."""
    if key == "timeout_s":
        return f"executor=local\ncommand=true {{x}}\ntimeout_s={raw}\n"
    numbers = {"base_s": "100", "weights": "50", "noise_sd_s": "0", key: raw}
    return ("executor=synthetic\nfamily=bowl\noptimum=0.5\n"
            + "".join(f"{k}={v}\n" for k, v in numbers.items()))


# case -> (params.conf, job.conf, the error load_project raises, its message): a number
# that is not finite, or a table time that is not positive
NON_FINITE = {
    "step-nan": ("x float min=0 max=1 step=nan\n", X_BOWL,
                 DomainError, "^line 1: x: float step must be finite, got nan$"),
    "step-inf": ("x float min=0 max=1 step=inf\n", X_BOWL,
                 DomainError, "^line 1: x: float step must be finite, got inf$"),
    "max-inf": ("x float min=0 max=inf step=0.1\n", X_BOWL,
                DomainError, "^line 1: x: float upper must be finite, got inf$"),
    "min-inf": ("x float min=-inf max=1 step=0.1 default=0\n", X_BOWL,
                DomainError, "^line 1: x: float lower must be finite, got -inf$"),
    **{f"{key}-{raw}": (X_FLOAT, x_job(key, raw), BadValueError,
                        f"^bad value for key '{key}' in job.conf: '{raw}' is not a .*finite number")
       for key in ("base_s", "noise_sd_s", "weights", "timeout_s") for raw in ("nan", "inf")},
    "table-nan": (X_FLOAT, X_TABLE + "table=0=nan;1=5\n", BadValueError,
                  "^bad value for key 'table' in job.conf: cell '0=nan' holds a value that is "
                  "no number$"),
    "table-negative": (X_FLOAT, X_TABLE + "table=0=-5;7=5\n", BadValueError,
                       "^bad value for key 'surface' in job.conf: table times must be positive "
                       "and finite$"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_a_number_that_is_not_finite_or_a_time_not_positive_is_refused_on_load(tmp_path, case):
    params, job, error, message = NON_FINITE[case]
    root = tmp_path / "p"
    root.mkdir()
    (root / "params.conf").write_text(params)
    (root / "job.conf").write_text(job)
    with pytest.raises(error, match=message):
        load_project(root)
    assert main(["tune", "--dir", str(root), "--strategy", "grid", "--budget", "2"]) == 2
    assert not (root / "history").exists()


def test_load_refuses_a_local_command_that_does_not_split(tmp_path):
    d = tmp_path / "p"
    d.mkdir()
    (d / "params.conf").write_text("x cat values=a'b,c\n")
    (d / "job.conf").write_text("executor=local\ncommand=echo 'ran {x}\n")
    with pytest.raises(BadValueError, match="'command' in job.conf: No closing quotation"):
        load_project(d)
    (d / "job.conf").write_text("executor=local\ncommand=echo {x}\n")  # a quote in a value is data
    assert load_project(d).job.artifact == "echo {x}"


# --- scaffold -------------------------------------------------------------------------

def fill_placeholders(root: Path) -> None:
    for name in ("job.conf", ENV_FILE):
        path = root / name
        if not path.exists():
            continue
        text = path.read_text()
        for placeholder, value in [
            ("<master-host-or-ip>", "10.0.0.5"),
            ("<ssh-user>", "hadoop"),
            ("<path-to-private-key>", "/keys/id"),
            ("<remote-hadoop-home>", "/opt/hadoop"),
            ("<remote-aggregated-log-dir>", "/var/log/yarn/agg"),
            ("<path-to-job-jar>", "app.jar"),
            ("<MainClass>", "WordCount"),
            ("<hdfs-input> <hdfs-output>", "/in /out"),
        ]:
            text = text.replace(placeholder, value)
        path.write_text(text)


@pytest.mark.parametrize("kind", ["task", "project", "tuning"])
def test_scaffold_closed_loop(tmp_path, kind):
    target = tmp_path / kind
    scaffold(kind, target)
    assert (target / "job.conf").exists()
    assert (target / ENV_FILE).exists()
    assert (target / "params.conf").exists()
    if kind in ("project", "tuning"):
        assert (target / "jobs.conf").exists()
    fill_placeholders(target)
    project = load_project(target)
    assert project.executor_kind == "remote"
    if kind == "tuning":
        assert project.tune_defaults == {"strategy": "bobyqa-lite", "budget": 50}
        assert "seed" not in (target / "job.conf").read_text()


@pytest.mark.parametrize("kind", ["task", "project", "tuning"])
def test_each_scaffold_holds_the_schema_of_its_files(tmp_path, kind):
    # HadoopEnv.txt's keys are ClusterEnv's fields; the job file holds a remote job's keys
    target = tmp_path / kind
    scaffold(kind, target)
    assert list(parse_kv_file((target / ENV_FILE).read_text(), ENV_FILE)) == \
        list(ClusterEnv._fields)
    fill_placeholders(target)
    job, executor_kind, _, _ = parse_job_file((target / "job.conf").read_text())
    assert executor_kind == "remote"
    assert (job.artifact, job.main_entry, job.static_args, job.cleanup_output) == \
        ("app.jar", "WordCount", ("/in", "/out"), True)


def test_scaffold_refuses_nonempty_dir(tmp_path):
    target = tmp_path / "busy"
    target.mkdir()
    (target / "keep.txt").write_text("mine")
    with pytest.raises(TunerError, match=f"^{re.escape(str(target))} is not empty; refusing to scaffold$"):
        scaffold("tuning", target)
    assert [p.name for p in target.iterdir()] == ["keep.txt"]


def test_scaffold_unknown_kind(tmp_path):
    with pytest.raises(ValueError):
        scaffold("mystery", tmp_path / "x")

"""The record path reads what ``map()`` reads.

The analyzer proves two things about a mapper's ``map()`` -- whether it
can read its key, and which value fields it reads (projection
detection) -- and the optimizer hands that proof to the chosen input as
a :class:`~repro.storage.blockscan.ReadShape`.  The block scan then
builds no key records and captures only the used fields: the records a
projection file of those fields would hold.

Pinned here: the key verdicts (every way a body can reach its key keeps
keys decoded), a seeded differential of ``Manimal.submit`` against stock
``run_job`` over every block-file codec on both runners (pickle-identical
outputs, counters and integer metrics; only ``fields_deserialized``
moves, to captured fields x records), loud failures for a wrong shape,
the shape surviving a pickle, the damaged-block corpus under a capture
shape, and shared-scan groups keyed on the shape.
"""

import dataclasses
import pickle
import random

import pytest
import test_blockscan as scan
from test_blockscan import DAMAGE, KEYS, VALUES, _outcome, _write_codec

from repro.api.expressions import col
from repro.api.session import Session
from repro.batch.multiscan import plan_shared_groups
from repro.core.analyzer.analyzer import ManimalAnalyzer
from repro.core.manimal import Manimal
from repro.exceptions import FieldNotPresentError, MapReduceError
from repro.explain import explain_job
from repro.mapreduce import LocalJobRunner, ParallelJobRunner
from repro.mapreduce.api import FunctionMapper, Mapper, Reducer
from repro.mapreduce.formats import _UNREAD_KEY, PartitionedInput
from repro.mapreduce.job import JobConf
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.runtime import run_job
from repro.storage.blockscan import FULL_READ, ReadShape
from tests.conftest import write_webpages

# -- mappers: every way a body can reach its key --------------------------------


class KeyBlind(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value.t, value.i)


class KeyTruthy(Mapper):
    def map(self, key, value, ctx):
        if key:
            ctx.emit(value.t, value.i)


class KeyEmitted(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key, value.i)


class KeyStored(Mapper):
    def map(self, key, value, ctx):
        self.k = key
        ctx.emit(value.t, value.i)


def _helper(record):
    return record is not None


class KeyToHelper(Mapper):
    def map(self, key, value, ctx):
        if _helper(key):
            ctx.emit(value.t, value.i)


class KeyViaLocals(Mapper):
    def map(self, key, value, ctx):
        if len(locals()) > 2:
            ctx.emit(value.t, value.i)


class KeyViaVarargs(Mapper):
    def map(self, *args):
        args[2].emit(args[1].t, args[1].i)


class KeyInherited(KeyBlind):
    """map() is KeyBlind's: the class's own body proves nothing."""


class KeyMapSwapped(KeyBlind):
    def setup(self, ctx):
        self.map = lambda key, value, ctx: ctx.emit(key, value.i)

    def map(self, key, value, ctx):
        ctx.emit(value.t, value.i)


class KeyNotLowerable(Mapper):
    def map(self, key, value, ctx):
        async def later():
            return None

        ctx.emit(value.t, value.i)


def key_blind_function(key, value, ctx):
    ctx.emit(value.t, value.i)


def key_reading_function(key, value, ctx):
    ctx.emit(key.tag, value.i)


KEY_READERS = [KeyTruthy, KeyEmitted, KeyStored, KeyToHelper, KeyViaLocals,
               KeyViaVarargs, KeyInherited, KeyMapSwapped, KeyNotLowerable]


def _shape_of(mapper):
    ia = ManimalAnalyzer().analyze_mapper(mapper, KEYS, VALUES)
    return ia.read_shape, ia.read_notes


class TestKeyVerdicts:
    @pytest.mark.parametrize("mapper", KEY_READERS,
                             ids=lambda m: m.__name__)
    def test_every_way_to_reach_the_key_keeps_keys(self, mapper):
        shape, notes = _shape_of(mapper())
        assert shape.decode_keys
        assert "map() reads key" in notes

    def test_a_mapper_that_never_names_its_key_skips_keys(self):
        shape, notes = _shape_of(KeyBlind())
        assert shape == ReadShape(decode_keys=False, fields=("i", "t"))
        assert notes == []

    def test_function_mappers(self):
        assert not _shape_of(FunctionMapper(key_blind_function))[0].decode_keys
        assert _shape_of(FunctionMapper(key_reading_function))[0].decode_keys

    def test_a_map_replaced_on_the_instance_keeps_keys(self):
        mapper = KeyBlind()
        mapper.map = lambda key, value, ctx: ctx.emit(key, 1)
        assert _shape_of(mapper)[0].decode_keys

    def test_an_escaping_value_keeps_every_field(self):
        shape, notes = _shape_of(FunctionMapper(_emit_whole))
        assert shape == ReadShape(decode_keys=False, fields=None)
        assert notes == ["value escapes"]


def _emit_whole(key, value, ctx):
    ctx.emit(value.s, value)


# -- the seeded differential ------------------------------------------------------


class MaxReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, max(values))


class KeyReadingPair(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key.tag, value.n)


#: (mapper, reducer, the shape the analyzer proves)
PROGRAMS = [
    (KeyBlind, MaxReducer, ReadShape(False, ("i", "t"))),
    (KeyReadingPair, MaxReducer, ReadShape(True, ("n",))),
    (FunctionMapper(_emit_whole), None, ReadShape(False, None)),
]
CODECS = ["record", "projection", "delta", "dictionary", "partitions"]
#: execution-path observables, not the scan's: the pool's wall time,
#: and which path served a task (an analyzer-described map() takes the
#: batch path, whose scan captures what the read shape captures)
SCHEDULING = {"wall_seconds", "batch_map_tasks"}


def _int_metrics(metrics):
    return {f.name: getattr(metrics, f.name)
            for f in dataclasses.fields(JobMetrics)
            if isinstance(getattr(metrics, f.name), int)
            and f.name not in SCHEDULING}


def _width(source):
    if isinstance(source, PartitionedInput):
        return len(source.info().value_schema.fields)
    with source.reader_class(source.path) as reader:
        return len(reader.stored_schema.fields)


class TestDifferential:
    @pytest.mark.parametrize("runner", ["local", 2])
    @pytest.mark.parametrize("kind", CODECS)
    def test_submit_equals_stock_run_job(self, tmp_path, kind, runner):
        rng = random.Random(0x5EAD + CODECS.index(kind))
        source, _files = _write_codec(kind, str(tmp_path / "data"), rng,
                                      n_rows=120)
        system = Manimal(str(tmp_path / "catalog"))
        for mapper, reducer, shape in PROGRAMS:
            conf = JobConf(name=f"shape-{kind}", mapper=mapper,
                           reducer=reducer, inputs=[source])
            make = (LocalJobRunner if runner == "local"
                    else lambda: ParallelJobRunner(num_workers=runner))
            stock = run_job(conf, runner=make())
            outcome = system.submit(conf, runner=make())
            chosen = outcome.descriptor.plans[0].chosen
            assert chosen.shape == shape
            # the shape is no optimization label
            assert not outcome.optimized
            assert outcome.descriptor.optimizations() == []
            got = outcome.result
            assert pickle.dumps(got.outputs) == pickle.dumps(stock.outputs)
            assert got.counters.to_dict() == stock.counters.to_dict()
            want = _int_metrics(stock.metrics)
            have = _int_metrics(got.metrics)
            records = want["map_input_records"]
            captured = (len(shape.fields) if shape.fields is not None
                        else _width(source))
            assert have.pop("fields_deserialized") == captured * records
            assert want.pop("fields_deserialized") == _width(source) * records
            assert have == want


# -- loud failures -------------------------------------------------------------------


def _pairs(source):
    out = []
    for split in source.splits(2):
        out += list(source.open(split))
    return out


class TestLoudFailures:
    def test_an_uncaptured_field_is_not_present(self, tmp_path):
        source, _ = _write_codec("record", str(tmp_path / "f.rf"),
                                 random.Random(3))
        shaped = source.with_shape(ReadShape(True, ("t", "i")))
        pairs = _pairs(shaped)
        full = _pairs(source)
        assert [v.as_tuple() for _k, v in pairs] == [
            (v.i, v.t) for _k, v in full]
        value = pairs[0][1]
        # the records a projection file of those fields would hold
        assert value.schema.name == VALUES.project(["i", "t"]).name
        with pytest.raises(FieldNotPresentError):
            value.s

    def test_the_unread_key_fails_if_emitted(self, tmp_path):
        source, _ = _write_codec("record", str(tmp_path / "f.rf"),
                                 random.Random(4))
        shaped = source.with_shape(ReadShape(False, None))
        assert all(key is _UNREAD_KEY for key, _v in _pairs(shaped))
        conf = JobConf(name="wrong-verdict", mapper=KeyEmitted,
                       reducer=MaxReducer, inputs=[shaped])
        with pytest.raises(MapReduceError, match="_UnreadKey"):
            run_job(conf, runner=LocalJobRunner())

    def test_partitioned_input_pickles_its_shape(self, tmp_path):
        source, _ = _write_codec("partitions", str(tmp_path / "p"),
                                 random.Random(5))
        shape = ReadShape(False, ("i",))
        shaped = source.with_shape(shape)
        assert source.shape == FULL_READ
        assert pickle.loads(pickle.dumps(shaped)).shape == shape
        pruned = shaped.with_partitions([p.file for p in
                                         shaped.partitions()[:1]])
        assert pickle.loads(pickle.dumps(pruned)).shape == shape


# -- damaged blocks -------------------------------------------------------------------


#: what the capture shapes read of the corpus's VALUES records
SHAPES = [ReadShape(False, ("i", "t")), ReadShape(True, ("s", "n", "raw"))]


def _shaped_reader(source):
    """``InputSource.open`` over every split: pairs (key tuple or None),
    logical bytes, fields."""
    pairs, logical, fields = [], 0, 0
    for split in source.splits(3):
        reader = source.open(split)
        pairs += [(None if k is _UNREAD_KEY else k.as_tuple(), v.as_tuple())
                  for k, v in reader]
        logical += reader.logical_bytes
        fields += reader.fields
    return "ok", pairs, logical, fields


def _check_shaped(source, shape, stats, pristine=False):
    """The shaped reader yields the full record path's pairs narrowed to
    the shape, or raises its exception, type and message.  Carve-outs,
    on damaged files only: a string nobody captures (a skipped key's
    included) is never UTF-8 decoded -- so where the full decode raises
    ``UnicodeDecodeError`` the shaped scan may read past it -- and an
    overlong varint is charged its span."""
    shaped = source.with_shape(shape)
    got = _outcome(_shaped_reader, shaped)
    want = _outcome(scan._record_path_reference, source)
    if want[0] == "err" and want[1] is UnicodeDecodeError and got != want:
        # the full decode stopped at a string this shape passes over;
        # the shaped scan reads on, to the end or a later block's error
        stats["carved"] += 1
        return
    if want[0] == "ok":
        index = [f.name for f in VALUES.fields]
        keep = [i for i, name in enumerate(index) if name in shape.fields]
        pairs = [(k if shape.decode_keys else None,
                  tuple(v[i] for i in keep)) for k, v in want[1]]
        logical = want[2]
        if got[0] == "ok" and got[2] != logical and not pristine:
            logical = _outcome(scan._wire_logical, source)
        want = ("ok", pairs, logical, len(pairs) * len(keep))
    # repr: NaN doubles (a flipped byte makes them) compare unequal
    assert repr(got) == repr(want), (source.describe(), shape)
    stats[got[1].__name__ if got[0] == "err" else "ok"] += 1


class TestDamagedBlocks:
    @pytest.mark.parametrize("kind", CODECS)
    def test_a_capture_shape_raises_the_reference_error(self, tmp_path, kind):
        rng = random.Random(0xDA3A6E + CODECS.index(kind))
        stats = dict.fromkeys(["ok", "carved", "CorruptFileError",
                               "SerializationError", "UnicodeDecodeError"], 0)
        path = str(tmp_path / "data")
        for damage_kind, (damage, rounds) in DAMAGE.items():
            for _ in range(max(2, rounds // 2)):
                source, files = _write_codec(kind, path, rng)
                shape = rng.choice(SHAPES)
                _check_shaped(source, shape, stats, pristine=True)
                damage(rng.choice(files), rng)
                _check_shaped(source, shape, stats)
        # the corpus is not vacuous: every outcome class was reached
        del stats["carved"], stats["UnicodeDecodeError"]  # as flips fall
        assert all(stats.values()), stats


# -- shared-scan groups -------------------------------------------------------------


def _stage0(session, dataset, name):
    plan = session.lower(dataset, name=name)
    stage0 = plan.stages[0]
    descriptor = session.system.plan(stage0.conf, stage0.hints)
    return descriptor.apply(stage0.conf)


class TestGroups:
    def test_groups_key_on_identity_and_shape(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 80)
        with Session(workdir=str(tmp_path / "s")) as session:
            confs = [
                _stage0(session, session.read(path).filter(col("rank") > n)
                        .select("url", "rank"), f"q{n}")
                for n in (10, 20)]
            # fluent stages keep the full decode: one group
            assert all(c.inputs[0].shape == FULL_READ for c in confs)
            assert len(plan_shared_groups(confs).groups) == 1
            # a peer reading another shape never shares its split
            other = confs[1].with_inputs(
                [confs[1].inputs[0].with_shape(ReadShape(False, ("rank",)))])
            report = plan_shared_groups([confs[0], other])
            assert not report.groups
            assert [reason for _i, reason in sorted(report.solo)] == \
                ["singleton group"] * 2


# -- explain ---------------------------------------------------------------------------


class TestExplain:
    def test_classic_decode_lines(self, tmp_path):
        source, _ = _write_codec("record", str(tmp_path / "f.rf"),
                                 random.Random(6))
        lines = {}
        for mapper in (KeyBlind, KeyReadingPair, FunctionMapper(_emit_whole),
                       KeyViaVarargs):
            conf = JobConf(name="x", mapper=mapper, reducer=None,
                           inputs=[source])
            text = explain_job(conf, catalog_dir=str(tmp_path / "cat"))
            [line] = [ln.strip() for ln in text.splitlines()
                      if ln.strip().startswith("decode:")]
            lines[getattr(mapper, "__name__", "whole")] = line
        assert lines == {
            "KeyBlind": "decode: key skipped; 2/7 value fields [i, t]",
            "KeyReadingPair":
                "decode: 1/7 value fields [n] (map() reads key)",
            "whole": "decode: key skipped (value escapes)",
            "KeyViaVarargs":
                "decode: full (map() reads key; map() not analyzable)",
        }

    def test_fluent_stages_decode_in_full(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 30)
        with Session(workdir=str(tmp_path / "s")) as session:
            text = session.read(path).filter(col("rank") > 3) \
                .select("url").explain()
        assert "  input[0] decode: full (fluent stage)" in text.splitlines()

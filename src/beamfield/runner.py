"""End-to-end run orchestration and artifact export.

A run executes the plan :func:`~beamfield.config.checked` returns for its
config and reads nothing else: the array, grid and scenarios validation
built are the run's.  Per scenario it executes the link stages: channel
generation, pilot-based CSI estimation, receive combining, zero-forcing
precoding and OFDM frame transmission (per-user BER).  They run per
link block of consecutive scenarios (:func:`run_links`): one channel
call and one stacked combining SVD serve the whole block, while the CSI
estimate, the precoder and the frames stay per scenario, with its own
seeds, so a link is bit-identical to its scenario run alone.  The probe-grid
heat maps of every scenario's precoder are then streamed one block of
grid rows at a time (:func:`~beamfield.field.heatmaps`), so the run
holds one block of probe x element gains, never the whole grid's matrix.
The maps are then aggregated: average map, boresight cut, decay fit,
summary statistics and compliance checks against the built-in regional
limits.  Every artifact is written in a fixed order with deterministic
formatting, and a manifest of content hashes is emitted last, so two
runs with the same configuration and seed are byte-identical.  The
output directory is made once the links, maps and statistics are done,
just before the first artifact: a run that fails before writing leaves
no directory, and one that fails while writing leaves no manifest.

The heat maps are written one format at a time, block-major
(:mod:`~beamfield.render`): one block of grid rows of every map, its
grid-only template made once and filled per map, before the next block.
Each block is encoded, hashed and appended to its map's file as soon as
it is made, and a file is open only while one block is written to it.
So a run holds at most one block of probe gains while it makes the
maps, and then the maps and one block of text and of per-cell arrays:
no artifact's whole text or bytes, and no whole grid's template, ever
exist.
"""

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from . import compliance as compliance_mod
from . import stats as stats_mod
from .channel import _GAIN_BLOCK_ENTRIES, ChannelMatrix, estimate_csi, generate_channel
from .config import checked, derive_seed
from .errors import BeamfieldError, ConfigError
from .field import heatmaps
from .ofdm import transmit_frame
from .precoding import combining_vectors, zf_precoder
from .render import ascii_blocks, csv_blocks, json_blocks, svg_blocks

_SEED_STREAM_CSI = 0
_SEED_STREAM_FRAME = 1

# Gains per link block: one receiver block of propagation_gains, 128 KiB.
# Larger link blocks ran the link stages little faster and held more memory.
_LINK_BLOCK_ENTRIES = _GAIN_BLOCK_ENTRIES

# verify_manifest reads and hashes artifacts 64 KiB at a time.
_CHUNK = 1 << 16


@dataclasses.dataclass(frozen=True)
class ScenarioLink:
    """One scenario's link result: its BER report and the precoder its map needs."""

    scenario: object
    ber: object
    precoder: object


@dataclasses.dataclass(frozen=True)
class Manifest:
    """Artifact inventory: path, type and content hash per file."""

    artifacts: tuple
    out_dir: str

    def paths(self):
        return [a["path"] for a in self.artifacts]


def _link_blocks(scenarios, n_tx):
    """(start, stop) ranges of consecutive ``scenarios`` that share one link block.

    A block's scenarios have one ``antennas_per_ue`` and together at most
    ``_LINK_BLOCK_ENTRIES`` gains (UE antennas x ``n_tx``); a scenario with
    more is a block of its own.
    """
    blocks, start, entries = [], 0, 0
    for i, scenario in enumerate(scenarios):
        size = scenario.n_users * scenario.antennas_per_ue * n_tx
        if i > start and (entries + size > _LINK_BLOCK_ENTRIES or scenario.antennas_per_ue
                          != scenarios[start].antennas_per_ue):
            blocks.append((start, i))
            start, entries = i, 0
        entries += size
    if scenarios:
        blocks.append((start, len(scenarios)))
    return blocks


def _block_links(config, scenarios, start, stop, array):
    """The links of ``scenarios[start:stop]``, one link block; see :func:`run_links`."""
    block = scenarios[start:stop]
    channel = config.channel
    h_true = generate_channel(array, block, config.room, channel)
    h_est = [estimate_csi(h, channel, derive_seed(config.seed, i, _SEED_STREAM_CSI))
             for i, h in enumerate(h_true, start)]
    combiners = combining_vectors(ChannelMatrix(h=np.concatenate([h.h for h in h_est])))
    links, user = [], 0
    for i, (scenario, h, est) in enumerate(zip(block, h_true, h_est), start):
        own = combiners[user:user + est.n_users]
        user += est.n_users
        precoder = zf_precoder(est, own, config.tx_power_w)
        ber = transmit_frame(precoder, h, own, config.ofdm,
                             derive_seed(config.seed, i, _SEED_STREAM_FRAME))
        links.append(ScenarioLink(scenario=scenario, ber=ber, precoder=precoder))
    return links


def _named_links(config, scenarios, start, stop, array):
    """:func:`_block_links`, with an error prefixed by the id of the scenario that failed."""
    try:
        return _block_links(config, scenarios, start, stop, array)
    except (BeamfieldError, ValueError) as exc:
        if stop - start > 1:
            # The block runs again one scenario at a time, so the one that fails names itself.
            return [link for i in range(start, stop)
                    for link in _named_links(config, scenarios, i, i + 1, array)]
        exc.args = (f"scenario {scenarios[start].id}: {exc}",)
        raise


def run_links(config, scenarios, array):
    """The link stages of ``scenarios``: pilots, precoding and frames.

    Returns one :class:`ScenarioLink` per scenario, in order.  The
    scenarios are taken in link blocks (:func:`_link_blocks`): each
    block's channels come from one :func:`generate_channel` call and its
    combiners from one :func:`combining_vectors` call over its stacked
    CSI estimates.  The CSI estimate, the precoder and the frames stay
    per scenario, with the seeds of its index in ``scenarios``, so every
    link equals the one its scenario would get alone, bit for bit.  A
    stage that fails raises its error prefixed with ``scenario <id>:``.
    Each heat map comes from the returned precoder, through
    :func:`~beamfield.field.heatmaps`.
    """
    return [link for start, stop in _link_blocks(scenarios, array.n_active)
            for link in _named_links(config, scenarios, start, stop, array)]


def run(config, out_dir=None):
    """Execute a full run and write all artifacts; returns the manifest.

    ``config`` is a :class:`~beamfield.config.RunConfig` or a parsed
    document; the run executes its :func:`~beamfield.config.checked` plan.
    Aborts (without emitting a manifest) if validation finds problems or
    any scenario fails; partial results are never described as complete.
    """
    plan, findings = checked(config)
    if findings:
        raise ConfigError("configuration invalid:\n"
                          + "\n".join(f"finding: {f}" for f in findings))

    config, array, grid, scenarios = plan.config, plan.array, plan.grid, plan.scenarios
    out_dir = out_dir if out_dir is not None else config.output_dir

    links = run_links(config, scenarios, array)
    maps = heatmaps([(link.scenario, link.precoder) for link in links], array, config.room,
                    grid, config.channel, config.calibration)
    reports = [(link.scenario.id, link.ber) for link in links]
    # The precoders have made their maps: the artifacts are written without them.
    del links

    average = stats_mod.average_heatmaps(maps)
    cut = stats_mod.extract_cut(average, config.cut_x)
    exponent, r_squared = stats_mod.fit_decay(cut, min_distance=plan.min_distance)
    avg_summary = stats_mod.summary(average)
    regions = sorted(compliance_mod.DEFAULT_LIMITS_VPM)
    compliance_reports = [compliance_mod.check(average, region) for region in regions]
    exclusion_distances = {region: compliance_mod.min_compliant_distance(cut, region)
                           for region in regions}

    writer = _ArtifactWriter(out_dir, config.formats)
    writer.heatmaps([*maps, average], [scenario.id for scenario in scenarios] + [None],
                    vmax=config.svg_vmax,
                    markers=[scenario.ue_positions for scenario in scenarios] + [()])
    writer.ber_table(reports)
    writer.cut(cut, config.cut_x)
    writer.json_report("decay_fit.json", {
        "cut_x_m": config.cut_x,
        "exponent": exponent,
        "r_squared": r_squared,
        "min_distance_m": plan.min_distance,
    }, kind="decay-fit")
    writer.json_report("summary.json", {
        "average": dataclasses.asdict(avg_summary),
        "per_scenario": {heatmap.scenario_id: dataclasses.asdict(stats_mod.summary(heatmap))
                         for heatmap in maps},
    }, kind="summary")
    for rep in compliance_reports:
        distance = exclusion_distances[rep.region]
        # JSON has no infinity: an unbounded margin or distance is null.
        writer.json_report(f"compliance_{rep.region}.json", {
            **dataclasses.asdict(rep),
            "worst_margin_db": None if math.isinf(rep.worst_margin_db)
            else rep.worst_margin_db,
            "compliant": rep.compliant,
            "min_compliant_distance_m": None if math.isinf(distance) else distance,
        }, kind="compliance")

    return writer.manifest()


def _sig9(v):
    """Nine significant digits, compact form."""
    return f"{v:.9g}"


class _ArtifactWriter:
    """Writes artifacts in deterministic order and records their hashes."""

    def __init__(self, out_dir, formats):
        # Made only now, when the links, maps and statistics are done, so a
        # run that fails before its first artifact leaves no directory.
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.formats = set(formats)
        self._records = []

    def _append(self, names, blocks):
        """Write the ``(i, str)`` pairs ``blocks`` to the files ``names[i]``;
        returns each file's sha256 hex digest.

        Each block is encoded, hashed and written as soon as it is made, so
        neither the text nor the bytes of a whole artifact exist; a str
        holds code points, so the blocks' UTF-8 bytes join to those of the
        whole text.  A file is created by its first block and reopened to
        append each later one, so one file is open at a time however many
        the blocks go to.
        """
        digests = [hashlib.sha256() for _ in names]
        made = set()
        for i, block in blocks:
            data = block.encode("utf-8")
            digests[i].update(data)
            with open(os.path.join(self.out_dir, names[i]), "ab" if i in made else "wb") as fh:
                fh.write(data)
            made.add(i)
        return [digest.hexdigest() for digest in digests]

    def _record(self, name, kind, digest, scenario=None):
        self._records.append({"path": name, "type": kind, "sha256": digest,
                              "scenario": scenario})

    def _write(self, name, text, kind):
        (digest,) = self._append([name], [(0, text)])
        self._record(name, kind, digest)

    def heatmaps(self, maps, scenarios, vmax=None, markers=None):
        """Write the artifacts of ``maps`` on one grid, those of ``maps[i]``
        under the scenario id ``scenarios[i]``, or as the average where it is
        None; ``markers`` holds the (x, y) user positions of each map.

        Each format is written block-major (:mod:`~beamfield.render`); the
        records are then listed per map, in the order of the formats below.
        """
        stems = [f"heatmap_scenario_{scenario}" if scenario is not None else "heatmap_average"
                 for scenario in scenarios]
        written = []
        for fmt, extension, kind, blocks in (
                ("csv", "csv", "heatmap-csv", lambda: csv_blocks(maps)),
                ("json", "json", "heatmap-json", lambda: json_blocks(maps)),
                ("svg", "svg", "heatmap-svg", lambda: svg_blocks(maps, vmax, markers)),
                ("ascii", "txt", "heatmap-ascii", lambda: ascii_blocks(maps, vmax))):
            if fmt in self.formats:
                names = [f"{stem}.{extension}" for stem in stems]
                written.append((names, kind, self._append(names, blocks())))
        for i, scenario in enumerate(scenarios):
            for names, kind, digests in written:
                self._record(names[i], kind, digests[i], scenario)

    def ber_table(self, reports):
        """Write the (scenario id, BER report) pairs ``reports``."""
        # BER and the cut are core results: CSV is always written, JSON on request.
        lines = ["scenario,ue,ber,bits"]
        for sid, rep in reports:
            for u, ber in enumerate(rep.per_ue_ber, start=1):
                lines.append(f"{sid},{u},{_sig9(ber)},{rep.bits_tested}")
        self._write("ber.csv", "\n".join(lines) + "\n", "ber-csv")
        if "json" in self.formats:
            payload = [{
                "scenario": sid,
                "per_ue_ber": list(rep.per_ue_ber),
                "bits_tested": rep.bits_tested,
            } for sid, rep in reports]
            self._write("ber.json", _json_text(payload), "ber-json")

    def cut(self, profile, x):
        lines = ["y_m,field_vpm"]
        for d, f in profile.samples:
            lines.append(f"{_sig9(d)},{_sig9(f)}")
        self._write(f"cut_x{x:g}.csv", "\n".join(lines) + "\n", "cut-csv")

    def json_report(self, name, payload, kind):
        self._write(name, _json_text(payload), kind)

    def manifest(self):
        manifest = Manifest(artifacts=tuple(self._records), out_dir=self.out_dir)
        payload = {"artifacts": list(self._records)}
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "wb") as fh:
            fh.write(_json_text(payload).encode("utf-8"))
        return manifest


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def verify_manifest(out_dir):
    """Re-hash every artifact listed in a manifest; returns the paths that fail.

    The manifest is untrusted input.  One that is not an object with an
    ``artifacts`` list raises :class:`ValueError`.  An entry that is not
    a mapping with a ``path`` is returned whole, unopened.  A run writes
    each artifact once, directly in ``out_dir``, so a path that is not a
    string, contains NUL, is absolute, resolves anywhere else (links
    included) or was listed before fails unopened, as does an entry whose
    ``sha256`` is not a string and a file that does not exist or does not
    match its hash.
    """
    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("artifacts"), list):
        raise ValueError("manifest.json is not an object with an 'artifacts' list")
    root = os.path.realpath(out_dir)
    seen = set()
    bad = []
    # One buffer for every read, so reading allocates nothing per chunk.
    chunk = memoryview(bytearray(_CHUNK))
    for art in manifest["artifacts"]:
        if not isinstance(art, dict) or "path" not in art:
            bad.append(art)
            continue
        name = art["path"]
        if (not isinstance(name, str) or not isinstance(art.get("sha256"), str)
                or "\0" in name or os.path.isabs(name)):
            bad.append(name)
            continue
        path = os.path.realpath(os.path.join(root, name))
        if os.path.dirname(path) != root or path in seen or not os.path.isfile(path):
            bad.append(name)
            continue
        seen.add(path)
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while n := fh.readinto(chunk):
                digest.update(chunk[:n])
        if digest.hexdigest() != art["sha256"]:
            bad.append(name)
    return bad

"""End-to-end integration tests across subsystems.

These tests exercise the complete story the paper tells: sensor stations
record clips, ship them over a wireless network to an observatory, a
distributed Dynamic River pipeline extracts ensembles and builds patterns,
and MESO classifies the species — including the failure-injection path.
"""

from __future__ import annotations

import numpy as np

from repro import FAST_EXTRACTION, AcousticPipeline, MesoClassifier
from repro.classify import PatternExtractor, vote_ensemble
from repro.pipeline import collect_result
from repro.river import Deployment, Host, split_into_segments, validate_stream
from repro.river.operators import ClipSource
from repro.sensors import SensorDeployment, SensorStation, StationConfig, WirelessLink
from repro.synth import ClipBuilder, get_species


class TestFullStack:
    def test_sensor_to_classifier_round_trip(self, global_extraction):
        """Clips recorded by simulated stations end up classified by MESO."""
        # 1. Record clips at two stations (each hears a different species).
        deployment = SensorDeployment()
        for index, species in enumerate(("RWBL", "TUTI")):
            config = StationConfig(
                station_id=f"station-{species}",
                clip_interval=600.0,
                clip_duration=10.0,
                sample_rate=16000,
                species=(species,),
                songs_per_clip=2.0,
            )
            deployment.add_station(SensorStation(config=config, seed=index), WirelessLink(seed=index))
        deployment.run_for(1800.0)
        assert len(deployment.observatory) >= 4

        # 2. Extract labelled ensembles from the delivered clips.
        pattern_extractor = PatternExtractor(
            config=FAST_EXTRACTION.features, sample_rate=16000, use_paa=True
        )
        ensembles = []
        for clip in deployment.observatory.clips:
            species = clip.station_id.split("-")[1]
            for ensemble in global_extraction.run(clip).labelled(clip):
                ensembles.append(ensemble)
        assert ensembles, "extraction found nothing in the delivered clips"
        species_seen = {e.label for e in ensembles}
        assert len(species_seen) == 2

        # 3. Train MESO on half of each species' ensembles, classify the rest by voting.
        patterns, groups = pattern_extractor.labelled_patterns(ensembles)
        train_groups, test_groups = [], []
        for species in sorted({e.label for e in ensembles}):
            species_groups = [g for g in groups if patterns[g[0]].label == species]
            train_groups.extend(species_groups[::2])
            test_groups.extend(species_groups[1::2])
        meso = MesoClassifier()
        for group in train_groups:
            for index in group:
                meso.partial_fit(patterns[index].features, patterns[index].label)
        correct = 0
        for group in test_groups:
            voted = vote_ensemble(meso, [patterns[i].features for i in group])
            correct += voted == patterns[group[0]].label
        assert correct / max(len(test_groups), 1) >= 0.6

    def test_distributed_extraction_with_relocation(self, rng):
        """A mid-run recomposition is invisible in the result: the compiled
        graph split across three hosts, with the features segment moved while
        records are in flight, is bit-identical to batch ``run()``."""
        clips = [
            ClipBuilder(sample_rate=16000, duration=8.0).build(species, rng, songs_per_species=1)
            for species in ("NOCA", "RWBL")
        ]
        meso = MesoClassifier()
        builder = AcousticPipeline().extract(FAST_EXTRACTION).features(use_paa=True).classify(meso)
        pipe = builder.build()
        for species in ("NOCA", "RWBL"):
            for _ in range(3):
                song = get_species(species).render(16000, rng)
                for vector in pipe.patterns_for(song):
                    meso.partial_fit(vector, species)

        seg_extract, seg_features, seg_classify = split_into_segments(pipe.to_river())
        deployment = Deployment(batch_size=16)
        deployment.add_host(Host("field", speed=1000.0))
        deployment.add_host(Host("relay", speed=1000.0))
        deployment.add_host(Host("lab", speed=2000.0))
        deployment.place(seg_extract, "field")
        deployment.place(seg_features, "relay")
        deployment.place(seg_classify, "lab")

        for record in ClipSource(clips, record_size=1024).generate():
            seg_extract.input_channel.put(record)

        # Run a little, then move the features segment to the faster host
        # while it is mid-stream and extraction is still feeding it.
        for _ in range(5):
            deployment.step_all()
        assert seg_features.records_processed and not seg_features.finished
        assert not seg_extract.finished
        deployment.relocate(seg_features.name, "lab")
        deployment.run()

        assert deployment.placement[seg_features.name] == "lab"
        assert deployment.finished
        outputs = list(seg_classify.drain_output())
        assert validate_stream(outputs) == []
        river = collect_result(outputs)
        batch = [pipe.run(clip) for clip in clips]
        ensembles = [e for result in batch for e in result.ensembles]
        patterns = [p for result in batch for p in result.patterns]
        assert ensembles, "extraction found nothing to relocate around"
        assert river.total_samples == sum(result.total_samples for result in batch)
        assert river.labels == [label for result in batch for label in result.labels]
        assert [(e.start, e.end) for e in river.ensembles] == [(e.start, e.end) for e in ensembles]
        assert [len(p) for p in river.patterns] == [len(p) for p in patterns]
        for ours, theirs in zip(river.ensembles, ensembles):
            np.testing.assert_array_equal(ours.samples, theirs.samples)
        for ours, theirs in zip(river.patterns, patterns):
            for u, v in zip(ours, theirs):
                np.testing.assert_array_equal(u, v)

"""End-to-end integration tests across subsystems.

These tests exercise the complete story the paper tells: sensor stations
record clips, ship them over a wireless network to an observatory, a
distributed Dynamic River pipeline extracts ensembles and builds patterns,
and MESO classifies the species — including the failure-injection path.
"""

from __future__ import annotations

from repro import FAST_EXTRACTION, MesoClassifier
from repro.classify import PatternExtractor, vote_ensemble
from repro.river import (
    Deployment,
    Host,
    Pipeline,
    PipelineSegment,
    QueueChannel,
    Subtype,
    build_extraction_pipeline,
    run_extraction,
    validate_stream,
)
from repro.river.operators import ClipSource, VectorSink
from repro.sensors import SensorDeployment, SensorStation, StationConfig, WirelessLink
from repro.synth import ClipBuilder



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

    def test_river_pipeline_matches_direct_extraction_pattern_counts(self, rng, global_extraction):
        """The record-oriented pipeline and the array API agree on the workload size."""
        clip = ClipBuilder(sample_rate=16000, duration=12.0).build("TUTI", rng, songs_per_species=2)
        direct = global_extraction.run(clip)
        direct_patterns = []
        pattern_extractor = PatternExtractor(config=FAST_EXTRACTION.features, sample_rate=16000)
        for ensemble in direct.ensembles:
            direct_patterns.extend(pattern_extractor.patterns_from_ensemble(ensemble))
        piped = run_extraction([clip], FAST_EXTRACTION, use_paa=False)
        # The two paths chunk the ensembles slightly differently (the pipeline
        # processes record-sized blocks), so allow a tolerance band.
        assert piped.patterns, "pipeline produced no patterns"
        assert direct_patterns, "direct extraction produced no patterns"
        ratio = len(piped.patterns) / len(direct_patterns)
        assert 0.3 < ratio < 3.0

    def test_distributed_extraction_with_relocation(self, rng):
        """Extraction split across three hosts survives a mid-run recomposition."""
        clips = [
            ClipBuilder(sample_rate=16000, duration=8.0).build(species, rng, songs_per_species=1)
            for species in ("NOCA", "RWBL")
        ]
        full = build_extraction_pipeline(FAST_EXTRACTION, use_paa=True)
        operators = full.operators
        split_a, split_b = 3, 7
        front = Pipeline(operators[:split_a], name="front")
        middle = Pipeline(operators[split_a:split_b], name="middle")
        back = Pipeline(operators[split_b:], name="back")

        deployment = Deployment(batch_size=16)
        deployment.add_host(Host("field", speed=1000.0))
        deployment.add_host(Host("relay", speed=1000.0))
        deployment.add_host(Host("lab", speed=2000.0))

        source_channel = QueueChannel()
        seg_front = PipelineSegment(name="front", pipeline=front, input_channel=source_channel)
        seg_middle = PipelineSegment(name="middle", pipeline=middle, input_channel=seg_front.output_channel)
        seg_back = PipelineSegment(name="back", pipeline=back, input_channel=seg_middle.output_channel)
        deployment.place(seg_front, "field")
        deployment.place(seg_middle, "relay")
        deployment.place(seg_back, "lab")

        for record in ClipSource(clips, record_size=4096).generate():
            source_channel.put(record)

        # Run a little, then move the middle segment to the faster host.
        for _ in range(5):
            deployment.step_all()
        deployment.relocate("middle", "lab")
        deployment.run()

        outputs = list(seg_back.drain_output())
        assert validate_stream(outputs) == []
        sink = VectorSink()
        for record in outputs:
            sink._invoke(record)
        features = [r for r in outputs if r.is_data and r.subtype == Subtype.FEATURES.value]
        assert len(sink.vectors) == len(features)
        assert deployment.placement["middle"] == "lab"
        assert deployment.finished

package main

// The sense workload is the spectrum-sensing subsystem on
// sense.DefaultWorld() at 256 bins, in the shape of a crowd-sensing
// ingest service.
//
// The main op is one node's ticks through Sensor.Measure →
// Report.MarshalBinary → Aggregator.IngestWire, in process: the
// sense.Sweep path at one worker. The traced run puts synthesis plus the
// Welch PSD (sense.measure) at ~97% of it, ingest at ~3% and the report
// codec under 1%; it has no HTTP.
//
// The side op POSTs a batch of reports from a corpus made in set-up to
// sense.NewHandler over one loopback keep-alive connection, then GETs
// /map and unmarshals it: the POSTs ~60%, the GET ~25% and the map decode
// ~14%. It has no PSD. The report and map codecs and the aggregator run
// in both ops.
//
// The map has senseTicks rows: each node measures every tick, and the
// emitters' on/off schedule is drawn per tick, so 64 ticks keep the
// seed's effect on the synthesis work to a few percent.

import (
	"bytes"
	"fmt"
	"net/http"

	"github.com/uwsdr/tinysdr/internal/sense"
)

const (
	senseBins      = 256
	senseTicks     = 64
	senseNodes     = 48
	senseThreshold = -85 // dBm, tinysdr-sense's default
	// senseBatch is the reports one side op posts: one node's worth, so an
	// HTTP pass over the corpus takes as many side ops as a main pass
	// takes main ops.
	senseBatch = senseTicks
)

type senseBench struct {
	world  sense.World
	sensor *sense.Sensor
	corpus [][]byte          // marshaled reports, node-major
	ref    []byte            // the map after ingesting the whole corpus
	local  *sense.Aggregator // the main op's in-process aggregator
	wires  [][]byte          // the main op's reports, awaiting the check
	lb     *loopback
}

func setupSense(seed int64, tr *tracer) (workload, error) {
	s := &senseBench{world: sense.DefaultWorld()}
	var err error
	if s.sensor, err = sense.NewSensor(&s.world, senseBins, seed); err != nil {
		return nil, err
	}
	// The corpus comes from a sensor of its own, so the main op's sensor
	// measures every report afresh.
	gen, err := sense.NewSensor(&s.world, senseBins, seed)
	if err != nil {
		return nil, err
	}
	refAgg, err := s.newAggregator()
	if err != nil {
		return nil, err
	}
	for node := 0; node < senseNodes; node++ {
		for tick := 0; tick < senseTicks; tick++ {
			wire, err := gen.Measure(node, tick).MarshalBinary()
			if err != nil {
				return nil, err
			}
			if err := refAgg.IngestWire(wire); err != nil {
				return nil, err
			}
			s.corpus = append(s.corpus, wire)
		}
	}
	if s.ref, err = refAgg.MapBytes(); err != nil {
		return nil, err
	}
	if s.lb, err = startLoopback(http.NotFoundHandler()); err != nil {
		return nil, err
	}

	// Warm-up: one op of each kind, checked like any other.
	if _, err := s.mainOp(0, &op{}); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up main op: %w", err)
	}
	if _, err := s.sideOp(0, &op{}); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up side op: %w", err)
	}
	return s, nil
}

func (s *senseBench) newAggregator() (*sense.Aggregator, error) {
	m, err := sense.NewMap(senseTicks, senseBins, s.world.SampleRate, senseThreshold)
	if err != nil {
		return nil, err
	}
	return sense.NewAggregator(m, 0)
}

// mainOp measures node i mod senseNodes at every tick and ingests the
// reports in process. Each report must equal the corpus's, and after the
// last node the map must equal the corpus map; the first node starts a
// fresh map.
func (s *senseBench) mainOp(i int, o *op) (int, error) {
	node := i % senseNodes
	if node == 0 {
		var err error
		if s.local, err = s.newAggregator(); err != nil {
			return 0, err
		}
	}
	s.wires = s.wires[:0]
	o.start()
	for tick := 0; tick < senseTicks; tick++ {
		sp := o.tr.begin("sense.measure")
		rep := s.sensor.Measure(node, tick)
		o.tr.end(sp)
		sp = o.tr.begin("sense.marshal")
		wire, err := rep.MarshalBinary()
		o.tr.end(sp)
		if err != nil {
			o.stop()
			return 0, err
		}
		sp = o.tr.begin("sense.ingest")
		err = s.local.IngestWire(wire)
		o.tr.end(sp)
		if err != nil {
			o.stop()
			return 0, err
		}
		s.wires = append(s.wires, wire)
	}
	o.stop()

	for tick, wire := range s.wires {
		if !bytes.Equal(wire, s.corpus[node*senseTicks+tick]) {
			return 0, fmt.Errorf("node %d tick %d: report differs from the corpus", node, tick)
		}
		o.out = append(o.out, wire...)
	}
	if node == senseNodes-1 {
		got, err := s.local.MapBytes()
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, s.ref) {
			return 0, fmt.Errorf("in-process map after a full pass differs from the corpus map")
		}
	}
	return senseTicks, nil
}

// sideOp posts batch i mod senseNodes of the corpus, one report per
// request, then fetches and decodes the served map. Every post must be
// accepted, and after the last batch the served map must equal the
// corpus map; the first batch goes to a fresh aggregator.
func (s *senseBench) sideOp(i int, o *op) (int, error) {
	batch := i % senseNodes
	if batch == 0 {
		agg, err := s.newAggregator()
		if err != nil {
			return 0, err
		}
		s.lb.swap(sense.NewHandler(agg))
	}
	reports := s.corpus[batch*senseBatch : (batch+1)*senseBatch]
	var m sense.Map
	var body []byte
	var err error
	status, posted, accepted := 0, 0, 0
	o.start()
	for _, wire := range reports {
		sp := o.tr.begin("sense.http_post")
		status, _, err = s.lb.do(http.MethodPost, "/reports", wire)
		o.tr.end(sp)
		posted++
		if err != nil || status != http.StatusAccepted {
			break
		}
		accepted++
	}
	if accepted == len(reports) {
		sp := o.tr.begin("sense.http_map")
		status, body, err = s.lb.do(http.MethodGet, "/map", nil)
		o.tr.end(sp)
		if err == nil && status == http.StatusOK {
			sp = o.tr.begin("sense.map_unmarshal")
			err = m.UnmarshalBinary(body)
			o.tr.end(sp)
		}
	}
	o.stop()
	o.tr.count("sense.accept_ratio", float64(accepted), float64(posted))
	if err != nil {
		return 0, err
	}
	if accepted < len(reports) {
		return 0, fmt.Errorf("POST /reports answered %d, want %d", status, http.StatusAccepted)
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET /map answered %d", status)
	}
	if want := uint64((batch + 1) * senseBatch); m.Reports != want {
		return 0, fmt.Errorf("served map holds %d reports, want %d", m.Reports, want)
	}
	o.out = append(o.out, body...)
	if batch == senseNodes-1 && !bytes.Equal(body, s.ref) {
		return 0, fmt.Errorf("served map after the whole corpus differs from the corpus map")
	}
	return len(reports), nil
}

func (s *senseBench) cycles() (int, int) { return senseNodes, senseNodes }

func (s *senseBench) describe() string {
	return fmt.Sprintf("corpus %d reports, map %d bytes", len(s.corpus), len(s.ref))
}

func (s *senseBench) close() error {
	if s.lb == nil {
		return nil
	}
	return s.lb.close()
}

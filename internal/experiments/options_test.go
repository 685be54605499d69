package experiments

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/trace"
)

// Options.Validate is the one up-front check every entry point shares:
// each rejection names the offending option by its JSON name, and
// nothing here simulates.
func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		o       Options
		figures []string
		field   string // "" = accepted
		says    string // substring of the error
	}{
		{name: "accepts", o: Options{}, figures: []string{"a1"}},
		{name: "accepts shards on an ablation", o: Options{Shards: 4, Parallelism: 8}, figures: []string{"a3"}},
		{name: "accepts shards off the latency figures", o: Options{Shards: 2}, figures: []string{"a1", "2a", "6b"}},
		{name: "accepts no figures", o: Options{Scale: 0.5, PacketSize: 512}},
		{name: "rejects an unknown figure", figures: []string{"2a", "9z"}, field: "figures", says: `"9z"`},
		{name: "rejects a negative scale", o: Options{Scale: -1}, field: "scale"},
		{name: "rejects negative shards", o: Options{Shards: -2}, figures: []string{"a1"}, field: "shards"},
		{name: "accepts shards with lat1", o: Options{Shards: 2}, figures: []string{"lat1"}},
		{name: "accepts shards with lat2", o: Options{Shards: 2}, figures: []string{"lat2"}},
		{name: "accepts shards with LAT1", o: Options{Shards: 2}, figures: []string{"LAT1"}},
		{name: "accepts shards with lat1 behind other figures", o: Options{Shards: 2}, figures: []string{"2a", "lat1"}},
		{name: "accepts shards with every figure", o: Options{Shards: 2}, figures: FigureIDs()},
		{name: "rejects an unknown topology", o: Options{Topo: "hypercube"}, figures: []string{"a1"}, field: "topo", says: "fattree"},
		{name: "accepts topology min", o: Options{Topo: "min"}},
		{name: "accepts topology fattree", o: Options{Topo: "fattree"}},
		{name: "accepts topology fat-tree", o: Options{Topo: "fat-tree"}},
		{name: "accepts topology mesh", o: Options{Topo: "mesh"}},
		{name: "accepts topology FatTree", o: Options{Topo: "FatTree"}},
		{name: "rejects an oversized packet", o: Options{PacketSize: 1 << 20}, field: "packet_size"},
		{name: "rejects a bad throttle key", o: Options{ThrottleSpec: "bogus=1"}, field: "throttle_spec"},
		{name: "rejects inverted arn hysteresis", o: Options{ARNSpec: "on=1024,off=4096"}, field: "arn_spec"},
		{name: "rejects a malformed fault spec", o: Options{FaultSpec: "drop=nonsense"}, figures: []string{"2a"}, field: "fault_spec"},
		{name: "rejects an unknown fault item", o: Options{FaultSpec: "seed=1,explode=3"}, field: "fault_spec"},
		{name: "rejects digits after seed=auto", o: Options{FaultSpec: "seed=auto00"}, field: "fault_spec"},
		{name: "accepts seed=auto", o: Options{FaultSpec: "seed=auto,droprate=credit:0.01"}, figures: []string{"2a"}},
		{name: "rejects scripted drops on shards", o: Options{Shards: 2, FaultSpec: "drop=token:2"}, field: "shards", says: "scripted"},
		{name: "accepts scripted drops serial", o: Options{FaultSpec: "drop=token:2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.o.Validate(tc.figures...)
			if tc.field == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("got %v, want an *OptionError on %s", err, tc.field)
			}
			if oe.Field != tc.field || !strings.Contains(err.Error(), tc.says) {
				t.Errorf("got field %q, error %q; want field %q mentioning %q", oe.Field, err, tc.field, tc.says)
			}
		})
	}
}

// Every figure that records traces delivers them: the ablations and the
// latency tables used to drop Options.Trace on the floor.
func TestEveryFigureDeliversTraces(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Options) error
		want int
	}{
		{"ablation", func(o Options) error { _, err := AblationSAQCount(o, []int{1, 8}); return err }, 2},
		{"latency", func(o Options) error { _, err := LatencyFig(1, o); return err }, 1},
	} {
		var labels []string
		o := Options{
			Scale:    0.02,
			Policies: []fabric.Policy{fabric.PolicyRECN},
			Trace:    &trace.Config{BufferEvents: 64},
			OnTrace: func(label string, rec *trace.Recorder) {
				if rec.Total() == 0 {
					t.Errorf("%s: recorder %q is empty", tc.name, label)
				}
				labels = append(labels, label)
			},
		}
		if err := tc.run(o); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(labels) != tc.want {
			t.Errorf("%s: %d traces delivered (%v), want %d", tc.name, len(labels), labels, tc.want)
		}
	}
}

// The latency tables used to build their runs without Options.Topo.
func TestLatencyFigHonoursTopology(t *testing.T) {
	o := Options{Scale: 0.02, Policies: []fabric.Policy{fabric.PolicyVOQnet}}
	min, err := LatencyFig(1, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Topo = "mesh"
	mesh, err := LatencyFig(1, o)
	if err != nil {
		t.Fatal(err)
	}
	if min.String() == mesh.String() {
		t.Error("lat1 renders the same table on the MIN and on the mesh: Topo is not applied")
	}
}

// FuzzOptions fuzzes the wire form of the option set: whatever JSON
// decodes into Options and passes Validate must configure a run that
// executes. Link flaps are the one exception — their switch, port and
// host indices can only be checked against the network a figure builds,
// which is fabric.New's job — so flapping plans stop at Validate here.
func FuzzOptions(f *testing.F) {
	f.Add(`{"scale":0.05,"packet_size":512,"policies":["RECN","1Q"],"topo":"fattree","shards":2,"check":true}`)
	f.Add(`{"fault_spec":"seed=auto,droprate=credit:0.01,delayrate=token:0.1:2us","no_cache":true,"max_rows":3}`)
	f.Add(`{"throttle_spec":"mark=16384,min=100","arn_spec":"on=16384,off=4096","policies":["throttle","arn"],"topo":"mesh"}`)
	f.Add(`{"fault_spec":"drop=token:2","shards":1}`)
	f.Add(`{"fault_spec":"seed=auto00"}`)
	f.Add(`{"packet_size":131073,"scale":-1,"shards":-1,"topo":"hypercube","policies":["QQQ"]}`)
	f.Add(`{"fault_spec":"corrupt=3,flap=0:4:100us:140us","packet_size":4096}`)
	f.Fuzz(func(t *testing.T, body string) {
		var o Options
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&o); err != nil {
			return
		}
		if err := o.Validate(); err != nil {
			var oe *OptionError
			if !errors.As(err, &oe) || oe.Field == "" {
				t.Fatalf("Validate returned %v, want an *OptionError naming a field", err)
			}
			return
		}
		if strings.Contains(o.FaultSpec, "flap") {
			return
		}
		r := o.stamp(Run{Hosts: 64, Policy: fabric.PolicyRECN, Until: 1, Bin: 1})
		if _, err := r.Execute(); err != nil {
			t.Fatalf("validated options %+v rejected by Execute: %v", o, err)
		}
	})
}

package pef

import (
	"context"
	"reflect"
	"testing"
)

func TestScenarioFacadeGenerateAndRun(t *testing.T) {
	if got := ScenarioGenerators(); !reflect.DeepEqual(got, []string{"uniform", "boundary", "markov", "adversarial", "registered"}) {
		t.Fatalf("ScenarioGenerators() = %v", got)
	}
	specs, err := GenerateScenarios("uniform", GenConfig{MaxRing: 8}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	again, err := GenerateScenarios("uniform", GenConfig{MaxRing: 8}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, again) {
		t.Fatal("facade generation is not deterministic")
	}
	// Encode → decode → run round-trips through the declarative layer.
	data, err := specs[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, specs[0]) {
		t.Fatal("facade decode changed the scenario")
	}
	v, err := Run(context.Background(), back)
	if err != nil || v.Err != "" || !v.OK {
		t.Fatalf("generated scenario failed its predicate: %v %+v", err, v)
	}
	if v2, _ := Run(context.Background(), specs[0]); !reflect.DeepEqual(v, v2) {
		t.Fatal("replaying the same scenario changed the verdict")
	}
}

func TestScenarioFacadeCampaign(t *testing.T) {
	c, err := RunCampaign(context.Background(), CampaignConfig{
		Generator: "adversarial",
		Gen:       GenConfig{MaxRing: 8},
		Count:     20,
		Seeds:     []uint64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Verdicts) != 40 {
		t.Fatalf("campaign produced %d verdicts, want 40", len(c.Verdicts))
	}
	if len(c.Violations()) != 0 {
		t.Fatalf("campaign violations: %+v", c.Violations())
	}
}

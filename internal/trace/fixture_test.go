package trace

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// TestReplayFixtureMatchesRecipe: the committed examples/replay trace is
// exactly what its documented recipe generates,
//
//	tracegen -out examples/replay/trace.mrtl -table 64 -updates 16 -minutes 1 -seed 7 -peer-as 64900
//
// so the fixture can be regenerated after a format change and nothing
// else about it moves.
func TestReplayFixtureMatchesRecipe(t *testing.T) {
	committed, err := os.ReadFile("../../examples/replay/trace.mrtl")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGenConfig()
	cfg.TableSize, cfg.UpdateCount, cfg.Duration = 64, 16, time.Minute
	cfg.Seed, cfg.PeerAS = 7, 64900
	var buf bytes.Buffer
	if err := Write(&buf, Generate(cfg)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), committed) {
		t.Fatalf("the recipe writes %d bytes that differ from the committed %d; regenerate the fixture with tracegen", buf.Len(), len(committed))
	}
}

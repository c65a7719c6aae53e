package obsv

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"contiguitas/internal/supervise"
)

func TestCampaignLifecycle(t *testing.T) {
	b := NewBoard()
	c := b.Register("t")
	c.ObserveCampaign(2)
	c.ObserveUnits(0, 0, 10)
	c.ObserveUnits(1, 0, 10)
	c.ObserveAttempt(0, 1)
	c.ObserveAttempt(1, 1)
	c.ObserveEvent(supervise.Event{Kind: supervise.EventCrash, Shard: 1, Attempt: 1})
	c.ObserveEvent(supervise.Event{Kind: supervise.EventResume, Shard: 1, Attempt: 2})
	c.ObserveAttempt(1, 2)
	c.ObserveUnits(0, 10, 10)
	c.ObserveEvent(supervise.Event{Kind: supervise.EventDone, Shard: 0, Done: 1})
	c.ObserveUnits(1, 5, 10)

	st := c.Status()
	if st.Shards != 2 || st.Finished != 1 || st.Crashes != 1 || st.Resumed != 1 {
		t.Fatalf("mid-campaign status %+v", st)
	}
	if st.DoneUnits != 15 || st.TotalUnits != 20 || st.Percent != 75 {
		t.Fatalf("units %d/%d (%.0f%%), want 15/20 (75%%)", st.DoneUnits, st.TotalUnits, st.Percent)
	}
	if st.Ended {
		t.Fatal("ended before ObserveEnd")
	}
	rows := c.ShardTable()
	if rows[0].Status != shardDone || rows[1].Status != shardRunning {
		t.Fatalf("shard states %+v", rows)
	}
	if rows[1].Attempts != 2 || rows[1].Crashes != 1 {
		t.Fatalf("shard 1 row %+v", rows[1])
	}

	c.ObserveUnits(1, 10, 10)
	c.ObserveEvent(supervise.Event{Kind: supervise.EventDone, Shard: 1, Done: 2})
	c.ObserveEnd(&supervise.Report{
		Finished: 2, Resumed: 1, Crashes: 1, Complete: true,
	})
	st = c.Status()
	if !st.Ended || !st.Complete || st.Percent != 100 || st.Finished != 2 {
		t.Fatalf("final status %+v", st)
	}
}

// TestUnitsBeforeCampaign: the fleet seeds unit totals before the
// supervisor announces the campaign — the table must grow on demand.
func TestUnitsBeforeCampaign(t *testing.T) {
	c := NewBoard().Register("seed")
	c.ObserveUnits(3, 2, 9)
	c.ObserveCampaign(4)
	rows := c.ShardTable()
	if len(rows) != 4 {
		t.Fatalf("%d shard rows, want 4", len(rows))
	}
	if rows[3].DoneUnits != 2 || rows[3].TotalUnits != 9 {
		t.Fatalf("seeded units lost: %+v", rows[3])
	}
	if rows[0].Status != shardPending {
		t.Fatalf("shard 0 status %q, want pending", rows[0].Status)
	}
}

// TestEndedWithoutUnits: a campaign that ends before reporting any
// units reads 100%, not 0%.
func TestEndedWithoutUnits(t *testing.T) {
	c := NewBoard().Register("ref")
	c.ObserveEnd(&supervise.Report{Complete: true})
	st := c.Status()
	if !st.Ended || !st.Complete || st.Percent != 100 {
		t.Fatalf("status %+v", st)
	}
}

func TestCacheStatusOnlyWhenSeen(t *testing.T) {
	c := NewBoard().Register("c")
	if c.Status().Cache != nil {
		t.Fatal("cache block present before any ObserveCache")
	}
	c.ObserveCache(3, 2, 1)
	st := c.Status()
	if st.Cache == nil || st.Cache.Hits != 3 || st.Cache.Misses != 2 || st.Cache.Rejects != 1 {
		t.Fatalf("cache status %+v", st.Cache)
	}
}

func TestBoardHTTPEndpoints(t *testing.T) {
	b := NewBoard()
	c0 := b.Register("alpha")
	b.Register("beta")
	c0.ObserveCampaign(1)
	c0.ObserveUnits(0, 1, 2)

	rec := httptest.NewRecorder()
	b.serveCampaigns(rec, httptest.NewRequest("GET", "/campaigns", nil))
	var rows []CampaignStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "alpha" || rows[1].ID != 1 {
		t.Fatalf("rows %+v", rows)
	}

	rec = httptest.NewRecorder()
	b.serveShards(rec, httptest.NewRequest("GET", "/campaigns/0/shards", nil))
	var body struct {
		Campaign CampaignStatus `json:"campaign"`
		Shards   []ShardStatus  `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Campaign.Name != "alpha" || len(body.Shards) != 1 || body.Shards[0].DoneUnits != 1 {
		t.Fatalf("shards body %+v", body)
	}

	for path, want := range map[string]int{
		"/campaigns/9/shards": 404, // unknown id
		"/campaigns/x/shards": 400, // unparseable id
		"/campaigns/0/nope":   404, // wrong tail
		"/campaigns/0":        404, // no tail
	} {
		rec = httptest.NewRecorder()
		b.serveShards(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != want {
			t.Errorf("%s -> %d, want %d", path, rec.Code, want)
		}
	}
}

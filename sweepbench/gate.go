package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"secddr/internal/harness"
	"secddr/internal/resultstore"
	"secddr/internal/sim"
)

// gate is the benchmark's correctness check. It runs outside the timed
// regions and counts every point it compares: a point that failed, was
// refused or differs from the reference counts as failed.
type gate struct {
	attempted, failed int
	problems          []string
}

func (g *gate) note(points, bad int, format string, args ...any) {
	g.attempted += points
	g.failed += bad
	if bad > 0 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// encodeOutcome is the canonical byte form one outcome is compared in:
// its key, digest and result JSON. The Cached flag is provenance, not
// result, and is left out so a cached re-run compares equal.
func encodeOutcome(o harness.Outcome) []byte {
	res, err := json.Marshal(o.Result)
	if err != nil {
		return []byte("unencodable: " + err.Error())
	}
	return fmt.Appendf(nil, "%s\x00%s\x00%s\n", o.Key, o.Digest, res)
}

// resultsSHA hashes a run's outcomes in job order.
func resultsSHA(outs []harness.Outcome) string {
	h := sha256.New()
	for _, o := range outs {
		h.Write(encodeOutcome(o))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mismatches counts the points of got that differ from ref.
func mismatches(ref, got []harness.Outcome) int {
	if len(got) != len(ref) {
		return max(len(ref), len(got))
	}
	bad := 0
	for i := range ref {
		if !bytes.Equal(encodeOutcome(ref[i]), encodeOutcome(got[i])) {
			bad++
		}
	}
	return bad
}

// iteration checks one iteration against the reference outcomes: the
// fresh run and every cached re-run must match them byte for byte, and the
// stats must balance.
func (g *gate) iteration(ref []harness.Outcome, s sample) {
	g.note(len(ref), mismatches(ref, s.outs), "fresh run differs from the first run (sha %s, want %s)",
		resultsSHA(s.outs), resultsSHA(ref))
	st := s.stats
	bad := 0
	if st.Executed+st.Cached+st.Deduped != st.Total || st.Total != len(ref) {
		bad = 1
	}
	g.note(1, bad, "fresh run stats do not balance: %+v", st)
	for i, outs := range s.reruns {
		g.note(len(ref), mismatches(ref, outs), "cached re-run %d differs from the fresh run", i)
		st := s.rerunStats[i]
		bad := 0
		if st.Cached != st.Total || st.Total != len(ref) || st.Executed != 0 {
			bad = 1
		}
		g.note(1, bad, "cached re-run %d was not all store hits: %+v", i, st)
	}
}

// coldPoints checks one point per configuration — the points of profile —
// against a cold sim.Run of the same options.
func (g *gate) coldPoints(jobs []harness.Job, ref []harness.Outcome, profile string) error {
	seen := make(map[string]bool)
	for i, j := range jobs {
		if j.Opt.WorkloadName() != profile || j.Opt.Fidelity.Sampled() {
			continue
		}
		label := j.Opt.Config.String()
		if seen[label] {
			continue
		}
		seen[label] = true
		res, err := sim.Run(j.Opt)
		if err != nil {
			return fmt.Errorf("cold sim.Run %s: %w", j.Key, err)
		}
		cold := harness.Outcome{Key: ref[i].Key, Digest: j.Opt.Digest(), Result: res}
		g.note(1, mismatches(ref[i:i+1], []harness.Outcome{cold}), "%s differs from a cold sim.Run", j.Key)
	}
	if len(seen) == 0 {
		return fmt.Errorf("no exact %s point to check against a cold sim.Run", profile)
	}
	return nil
}

// localRun checks served outcomes against a local harness.Run of the same
// jobs into a fresh store under dir.
func (g *gate) localRun(jobs []harness.Job, ref []harness.Outcome, workers int, dir string) error {
	defer os.RemoveAll(dir)
	rs, err := resultstore.Open(filepath.Join(dir, "local"), resultstore.Options{})
	if err != nil {
		return err
	}
	defer rs.Close()
	outs, _, err := harness.Run(harness.Campaign{Jobs: jobs, Workers: workers, Store: rs})
	if err != nil {
		return fmt.Errorf("local harness.Run: %w", err)
	}
	g.note(len(ref), mismatches(outs, ref), "served results differ from a local harness.Run")
	return nil
}

// recordedSHA holds, per workload (shaKey) and seed, the results_sha256
// the workload produced when its figures were recorded: seed 1 and the
// held-out seeds 101-110, and seed 1 at the smoke scale. The simulator is
// deterministic, so a run at a recorded seed must reproduce the hash; any
// other hash means the program's results changed, and the run fails.
var recordedSHA = map[string]map[uint64]string{
	"fig6-membound": {
		1:   "f0738d55a3dc0720ef35126e647a8e9a46e15826defc566e6e32fc5430608743",
		101: "0835da26bbc54a6d1338a245aba3682e12530e8573bc407d705681673ab34ab8",
		102: "90be13c4d64887d51ee1d777b062afeb4f83271e46d7290a33d66e9a7da57305",
		103: "bacb5525ceb6930a5e4cc11cbe32436c9a5d57bee02674adc4fac88605ec1004",
		104: "afabadce2ef9176b3768eb2fb57b57f682c35c8da21310e6114a1a452eb78e17",
		105: "cd2142d90f339d4701e8b6dd96fa7e5037fef6b3311fd5ed5cd0c5c6309b22db",
		106: "aeba471566c8d865303cf0e628526e024ebb403e82e36f8785209125cc340fb9",
		107: "a4bf55e13be4b8244be5f87de95bce6b7e053acea21f5dc29253f0cbe7ea279a",
		108: "708de487754da383b5d060fa882249c1ec9bb9130c622bbbc20d54693116413c",
		109: "f18f4fb4cfc42bef0bcfc5f631163187cd95a07445faecf0136ed31c79f3e6bb",
		110: "fcff5c2bf182830c9a818f14b9bd159cc85aac5d59f9c22d2750b1bae611aade",
	},
	"compute-bound": {
		1:   "5940aa83f550047f096209ceb64d6b30a409a0a6803d8ca7ba325a20299ae425",
		101: "15c118b67b17035901adae4c2c7fc2ada4e2090b98815a728543c9dd2e4223f8",
		102: "74a42aabd9650e9a268042cd0213df827757bab561c7fd8d6de6c668f1547a28",
		103: "3a5aa6ea74176afca5716c94a997ba533769bb108602233220a839ab7264911c",
		104: "e460162182aa51e73ef4acddb0310c02f25e9ee74a5be9fb34201b8befb2989a",
		105: "2699a42d69dadc111c31d07f29ebb0558037129610d703680a12f3988b6a730b",
		106: "0bec68fddbf8a2659caf1ee649b6df28eca37cdd950e73675d33503cd2a0d629",
		107: "92363bb4ba73b45e603523843c03d74d5ce9684b493310330bbb7bb3b26a033e",
		108: "a14ca1844e8653b6aa4e2f91fff6f7db5876a36c747769d39b628f68a50d2de8",
		109: "1a0a6c23c5a7d67b05c3d8919b4814c72c2b50f3fd49123b25098a57b169dcc8",
		110: "8b2dfa52a143e16df80446f4ff5450dca5b024a122f750db1aaa421dc0b8a40b",
	},
	"served-mixed": {
		1:   "c8478eeff6341d9370398a672c55380c6e47c94d4a895ad1ced1c6539fffa865",
		101: "ada74ec290934f91942e7261c9fc7362ccb156297f25556f38a4c9f2cdb48fd6",
		102: "07b185f9a59325c28ef4bd03a7fa6918ca0e8b59388a12287aba1a4d266b2281",
		103: "538a5f85f2599f8e15766d05a4ae9d805c2cc4868207b6014b3fd731081ca50f",
		104: "e67632e6dcecd2abc7e9fb70936aa63a725699767e00f020408fe4686496c49b",
		105: "ccf94137c985890330bb36b011484c9e35ebe70615cf7469ace29b92ae6722c5",
		106: "bdf231eea995aa96d38d811c4e31725b703b38a164a4827c2905f51e0679b275",
		107: "89cc821b5fda82ea123906b087bedfb32e9b1d771988b962fc1328303bc7300b",
		108: "ff0c1f9d85511545337d5ef878e2b31d976a9574f21603f6767b9d93aa325ca0",
		109: "68e32face267709fce2fb1c66fe59b3bb0c61c7703199edf342523b717548042",
		110: "b5cda008f229fef835b005d69d63d72b255c0b98b566384cdc1e4824cb1ba955",
	},
	"fig6-membound/smoke": {
		1: "a15d550d7478cdadb6168dc59294cd6516f8d793bd9adbc2a4eff2870f74f88b",
	},
	"compute-bound/smoke": {
		1: "a5241c675cdfb2676230bbba15f2f6dc735503721597fc294f32674b9447e645",
	},
	"served-mixed/smoke": {
		1: "0a41a70c9c8c977b2ebdb408546d56ccbfcaa31d625cc94814576973b806b565",
	},
}

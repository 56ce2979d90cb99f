package stencil

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mpicontend/internal/mpi"
	"mpicontend/internal/simlock"
)

// pinModes are the halo-exchange shapes the pin grid covers.
var pinModes = []struct {
	name string
	set  func(*Params)
}{
	{"eager", func(p *Params) {}},
	{"funneled", func(p *Params) { p.Funneled = true }},
	{"partitioned", func(p *Params) { p.Partitioned = true }},
	{"partitioned+cont", func(p *Params) {
		p.Partitioned = true
		p.Progress = mpi.ProgressContinuation
	}},
	{"eager+cont", func(p *Params) { p.Progress = mpi.ProgressContinuation }},
}

// pinDigest hashes the observable outputs of one run, so a refactor of
// the thread body that moves any of them shows up as a digest change.
func pinDigest(r Result) string {
	s := fmt.Sprintf("%d %v %v %v %v %v %+v",
		r.SimNs, r.GFlops, r.MPIPct, r.ComputePct, r.SyncPct, r.Checksum, r.Part)
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// TestStencilOutputPins holds every halo-exchange shape — eager,
// FUNNELED, partitioned, and both under continuation progress — to the
// digests of its simulated outputs over a procs × threads × lock grid.
func TestStencilOutputPins(t *testing.T) {
	got := map[string]string{}
	for _, procs := range []int{1, 2, 4, 8} {
		for _, threads := range []int{1, 2, 4} {
			for _, m := range pinModes {
				for _, lock := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket} {
					p := Params{Lock: lock, Procs: procs, Threads: threads,
						NX: 16, NY: 16, NZ: 16, Iters: 4}
					m.set(&p)
					key := fmt.Sprintf("p%d/t%d/%s/%v", procs, threads, m.name, lock)
					res, err := Run(p)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					got[key] = pinDigest(res)
				}
			}
		}
	}
	for key, want := range stencilPins {
		if got[key] != want {
			t.Errorf("%s: digest %s, want %s", key, got[key], want)
		}
	}
	if len(got) != len(stencilPins) {
		t.Errorf("grid has %d configs, pin table %d", len(got), len(stencilPins))
	}
}

// stencilPins are the digests of the grid, taken before the eager and
// partitioned exchanges shared one thread body.
var stencilPins = map[string]string{
	"p1/t1/eager/Mutex":             "26ccda48f93d1115",
	"p1/t1/eager/Ticket":            "26ccda48f93d1115",
	"p1/t1/funneled/Mutex":          "ab5941b65b96e1d0",
	"p1/t1/funneled/Ticket":         "ab5941b65b96e1d0",
	"p1/t1/partitioned/Mutex":       "a34c973468784742",
	"p1/t1/partitioned/Ticket":      "a34c973468784742",
	"p1/t1/partitioned+cont/Mutex":  "a34c973468784742",
	"p1/t1/partitioned+cont/Ticket": "a34c973468784742",
	"p1/t1/eager+cont/Mutex":        "26ccda48f93d1115",
	"p1/t1/eager+cont/Ticket":       "26ccda48f93d1115",
	"p1/t2/eager/Mutex":             "f55123c94d41fec7",
	"p1/t2/eager/Ticket":            "f55123c94d41fec7",
	"p1/t2/funneled/Mutex":          "13fb925dc491cd03",
	"p1/t2/funneled/Ticket":         "13fb925dc491cd03",
	"p1/t2/partitioned/Mutex":       "2fad21ed25cf6d63",
	"p1/t2/partitioned/Ticket":      "2fad21ed25cf6d63",
	"p1/t2/partitioned+cont/Mutex":  "2fad21ed25cf6d63",
	"p1/t2/partitioned+cont/Ticket": "2fad21ed25cf6d63",
	"p1/t2/eager+cont/Mutex":        "f55123c94d41fec7",
	"p1/t2/eager+cont/Ticket":       "f55123c94d41fec7",
	"p1/t4/eager/Mutex":             "8bd72fb315fb73a1",
	"p1/t4/eager/Ticket":            "8bd72fb315fb73a1",
	"p1/t4/funneled/Mutex":          "e52c37e29fc3283e",
	"p1/t4/funneled/Ticket":         "e52c37e29fc3283e",
	"p1/t4/partitioned/Mutex":       "78b3253a8a4b1723",
	"p1/t4/partitioned/Ticket":      "78b3253a8a4b1723",
	"p1/t4/partitioned+cont/Mutex":  "78b3253a8a4b1723",
	"p1/t4/partitioned+cont/Ticket": "78b3253a8a4b1723",
	"p1/t4/eager+cont/Mutex":        "8bd72fb315fb73a1",
	"p1/t4/eager+cont/Ticket":       "8bd72fb315fb73a1",
	"p2/t1/eager/Mutex":             "c8008b6f2c8c51ae",
	"p2/t1/eager/Ticket":            "9237fceb2e24c979",
	"p2/t1/funneled/Mutex":          "bbcde39228add668",
	"p2/t1/funneled/Ticket":         "bbcde39228add668",
	"p2/t1/partitioned/Mutex":       "f2bb43b303ee3752",
	"p2/t1/partitioned/Ticket":      "78e1bb571af12c1d",
	"p2/t1/partitioned+cont/Mutex":  "289de5fc86af53da",
	"p2/t1/partitioned+cont/Ticket": "56400ae0beb2a6bf",
	"p2/t1/eager+cont/Mutex":        "7313ebe3c2d922ef",
	"p2/t1/eager+cont/Ticket":       "ec1b710475e74968",
	"p2/t2/eager/Mutex":             "39d232bef27a10cb",
	"p2/t2/eager/Ticket":            "b6b320d4a8f48e61",
	"p2/t2/funneled/Mutex":          "0d4c2776286c7f14",
	"p2/t2/funneled/Ticket":         "0d4c2776286c7f14",
	"p2/t2/partitioned/Mutex":       "840fe3095d114eb2",
	"p2/t2/partitioned/Ticket":      "335a1c2d544032b1",
	"p2/t2/partitioned+cont/Mutex":  "29f3c9ba62e1b4c6",
	"p2/t2/partitioned+cont/Ticket": "a2f2720062ec7e59",
	"p2/t2/eager+cont/Mutex":        "3e03c71f50520a7b",
	"p2/t2/eager+cont/Ticket":       "fbc76ed076d926f9",
	"p2/t4/eager/Mutex":             "3c4ba83438c4775f",
	"p2/t4/eager/Ticket":            "e3c1abb37c03afd9",
	"p2/t4/funneled/Mutex":          "f8d52bc813531ce6",
	"p2/t4/funneled/Ticket":         "f8d52bc813531ce6",
	"p2/t4/partitioned/Mutex":       "dde04d34e0b0d764",
	"p2/t4/partitioned/Ticket":      "8506673484b9b1c4",
	"p2/t4/partitioned+cont/Mutex":  "464887657838060a",
	"p2/t4/partitioned+cont/Ticket": "84b480b250447cd5",
	"p2/t4/eager+cont/Mutex":        "fdef7cd1165fad70",
	"p2/t4/eager+cont/Ticket":       "f35a5874f36ac390",
	"p4/t1/eager/Mutex":             "a41cb66149ada596",
	"p4/t1/eager/Ticket":            "88e32ae345cb1f10",
	"p4/t1/funneled/Mutex":          "941573007c925466",
	"p4/t1/funneled/Ticket":         "941573007c925466",
	"p4/t1/partitioned/Mutex":       "d990ed2467fbb5a4",
	"p4/t1/partitioned/Ticket":      "57a6dd8849def7ff",
	"p4/t1/partitioned+cont/Mutex":  "b7fa1684123c674b",
	"p4/t1/partitioned+cont/Ticket": "71ab7ff1e4b0502b",
	"p4/t1/eager+cont/Mutex":        "62c3b9e3d6725b8c",
	"p4/t1/eager+cont/Ticket":       "04d694d6c51424b0",
	"p4/t2/eager/Mutex":             "51dcdc58a14b183a",
	"p4/t2/eager/Ticket":            "66f48c20656f7cbb",
	"p4/t2/funneled/Mutex":          "f2d3fc16774ad50f",
	"p4/t2/funneled/Ticket":         "f2d3fc16774ad50f",
	"p4/t2/partitioned/Mutex":       "d4d7367051dfcbf2",
	"p4/t2/partitioned/Ticket":      "ce67114358e6dc8e",
	"p4/t2/partitioned+cont/Mutex":  "0aaaedb77cfc8fc5",
	"p4/t2/partitioned+cont/Ticket": "b1c647a9b99085d7",
	"p4/t2/eager+cont/Mutex":        "18a4d97703c292d0",
	"p4/t2/eager+cont/Ticket":       "3d69d8752e91afad",
	"p4/t4/eager/Mutex":             "031615f0e0ce39ff",
	"p4/t4/eager/Ticket":            "74b2613dbeaabb74",
	"p4/t4/funneled/Mutex":          "4e72da8c0316498f",
	"p4/t4/funneled/Ticket":         "4e72da8c0316498f",
	"p4/t4/partitioned/Mutex":       "b03a1e8735afea0f",
	"p4/t4/partitioned/Ticket":      "9703f4ed77091fa6",
	"p4/t4/partitioned+cont/Mutex":  "0a5dafb1d57f1740",
	"p4/t4/partitioned+cont/Ticket": "499d9999c4dd1a91",
	"p4/t4/eager+cont/Mutex":        "9ff0c1f312f8ec2e",
	"p4/t4/eager+cont/Ticket":       "c6e949a8aafbb462",
	"p8/t1/eager/Mutex":             "a378f8243d9a5242",
	"p8/t1/eager/Ticket":            "a4addf7613f2859e",
	"p8/t1/funneled/Mutex":          "414f56ab77612b46",
	"p8/t1/funneled/Ticket":         "414f56ab77612b46",
	"p8/t1/partitioned/Mutex":       "07097ff73120d6db",
	"p8/t1/partitioned/Ticket":      "5f13593ed084d499",
	"p8/t1/partitioned+cont/Mutex":  "c35dca6891ea9a41",
	"p8/t1/partitioned+cont/Ticket": "bcfc87a88127f858",
	"p8/t1/eager+cont/Mutex":        "a5d4577811b1b261",
	"p8/t1/eager+cont/Ticket":       "e9ae53d4839a16fe",
	"p8/t2/eager/Mutex":             "4babea55af64b5bc",
	"p8/t2/eager/Ticket":            "00c145f37bd79be2",
	"p8/t2/funneled/Mutex":          "15eb11415dff3c61",
	"p8/t2/funneled/Ticket":         "15eb11415dff3c61",
	"p8/t2/partitioned/Mutex":       "51b02dcdbf614714",
	"p8/t2/partitioned/Ticket":      "0975540fb3346c6c",
	"p8/t2/partitioned+cont/Mutex":  "dfe37aa8713120a2",
	"p8/t2/partitioned+cont/Ticket": "865ebcf987c61239",
	"p8/t2/eager+cont/Mutex":        "2c6e86dd0c378a6f",
	"p8/t2/eager+cont/Ticket":       "973b3b32216e2577",
	"p8/t4/eager/Mutex":             "b7a9c061a4eb806d",
	"p8/t4/eager/Ticket":            "088825dd4ed44c48",
	"p8/t4/funneled/Mutex":          "3bc6dd2090d5ee6b",
	"p8/t4/funneled/Ticket":         "3bc6dd2090d5ee6b",
	"p8/t4/partitioned/Mutex":       "ec54c2f8a16da3b3",
	"p8/t4/partitioned/Ticket":      "f7931e1a9d63550d",
	"p8/t4/partitioned+cont/Mutex":  "dd9808a004f02d4d",
	"p8/t4/partitioned+cont/Ticket": "b2d7dd0194594501",
	"p8/t4/eager+cont/Mutex":        "97883b5854886a03",
	"p8/t4/eager+cont/Ticket":       "6f7c29fa91cda21c",
}

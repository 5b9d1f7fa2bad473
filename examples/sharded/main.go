// Sharded-master walkthrough: the same training job run with the master's
// data plane partitioned into M coordinate shards. First an in-process
// sharded run is compared bit-for-bit against its unsharded twin — sharding
// is a wall-clock knob, never a numerics knob — and the per-shard
// measurements in Result.Shards are printed. Then the job runs on the TCP
// runtime, where each reply is one frame on its worker's connection and the
// shard group decodes behind it, again bit-identical to the sim; the wire
// totals are measured, the per-shard slice bytes modelled. Finally the job
// checkpoints one file per shard and a fresh job resumes from the merged
// set, again bit-identical to an uninterrupted run; a torn set (one shard
// file missing) is rejected.
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"os"

	"bcc"
)

const shards = 4

// spec is the common topology: m=8 data partitions over n=8 workers at
// load r=3, a p=2048 model (four default wire chunks — one per shard).
func spec(iters int) bcc.Spec {
	return bcc.Spec{
		Examples: 8, Workers: 8, Load: 3,
		DataPoints: 160, Dim: 2048,
		Scheme: bcc.SchemeBCC, Iterations: iters, Seed: 42,
	}
}

func main() {
	// --- 1. In-process: sharded vs unsharded, bit for bit. ---------------
	plain := spec(30)
	sharded := spec(30)
	sharded.MasterShards = shards

	plainRes, err := bcc.Train(plain)
	if err != nil {
		log.Fatal(err)
	}
	shardRes, err := bcc.Train(sharded)
	if err != nil {
		log.Fatal(err)
	}
	for i := range plainRes.FinalW {
		if plainRes.FinalW[i] != shardRes.FinalW[i] {
			log.Fatalf("coordinate %d differs: %v vs %v", i, plainRes.FinalW[i], shardRes.FinalW[i])
		}
	}
	fmt.Printf("sim: M=%d model identical to unsharded across all %d coordinates\n",
		shards, len(plainRes.FinalW))
	printShards("sim (modelled slice bytes)", shardRes.Shards)

	// --- 2. TCP: the shard group behind real sockets, bit for bit. -------
	tcp := spec(30)
	tcp.MasterShards = shards
	tcp.Runtime = bcc.RuntimeTCP
	tcpRes, err := bcc.Train(tcp)
	if err != nil {
		log.Fatal(err)
	}
	for i := range plainRes.FinalW {
		if plainRes.FinalW[i] != tcpRes.FinalW[i] {
			log.Fatalf("tcp coordinate %d differs: %v vs %v", i, plainRes.FinalW[i], tcpRes.FinalW[i])
		}
	}
	fmt.Printf("\ntcp: M=%d reproduced the sim model exactly; "+
		"measured wire in/out %d/%d bytes\n", shards, tcpRes.TotalWireIn, tcpRes.TotalWireOut)
	printShards("tcp (modelled slice bytes)", tcpRes.Shards)

	// --- 3. Sharded checkpoint: one file per shard, merge-validated. -----
	dir, err := os.MkdirTemp("", "bcc-sharded")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := dir + "/ckpt.bin"

	half, err := bcc.NewJob(specSharded(15))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := half.Run(); err != nil {
		log.Fatal(err)
	}
	if err := half.CheckpointSharded(path, 15); err != nil {
		log.Fatal(err)
	}
	files, _ := os.ReadDir(dir)
	fmt.Printf("\ncheckpoint: %d files written:", len(files))
	for _, f := range files {
		info, _ := f.Info()
		fmt.Printf("  %s (%dB)", f.Name(), info.Size())
	}
	fmt.Println()

	resumed, err := bcc.NewJob(specSharded(15))
	if err != nil {
		log.Fatal(err)
	}
	completed, err := resumed.RestoreShardedCheckpoint(path)
	if err != nil {
		log.Fatal(err)
	}
	resRes, err := resumed.Run()
	if err != nil {
		log.Fatal(err)
	}
	for i := range shardRes.FinalW {
		if shardRes.FinalW[i] != resRes.FinalW[i] {
			log.Fatalf("resumed coordinate %d differs", i)
		}
	}
	fmt.Printf("resume: %d done + 15 more == uninterrupted 30, bit for bit\n", completed)

	// A torn set — here, one shard file deleted — must be rejected, not
	// silently reassembled into a partial state.
	os.Remove(path + ".shard2")
	torn, err := bcc.NewJob(specSharded(15))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := torn.RestoreShardedCheckpoint(path); err != nil {
		fmt.Printf("torn set rejected: %v\n", err)
	} else {
		log.Fatal("torn shard set was accepted")
	}
}

func specSharded(iters int) bcc.Spec {
	s := spec(iters)
	s.MasterShards = shards
	return s
}

func printShards(label string, stats []bcc.ShardStats) {
	fmt.Printf("per-shard stats, %s:\n", label)
	for _, ss := range stats {
		fmt.Printf("  shard %d owns [%4d,%4d)  decode %6.2fms  slice bytes in %d\n",
			ss.Shard, ss.Lo, ss.Hi, float64(ss.DecodeNs)/1e6, ss.SliceBytesIn)
	}
}

// GPU grep: the exact string matching application of the paper's §5.2.2
// ("grep -w"): count, for every dictionary word, how often and in which
// files it appears across a source tree — entirely from GPU kernel code.
//
// Run with:
//
//	go run ./examples/grep [-files 200] [-words 2000] [-mb 4]
package main

import (
	"flag"
	"fmt"
	"log"

	"gpufs"
	"gpufs/internal/workloads"
)

func main() {
	files := flag.Int("files", 200, "number of source files to generate")
	words := flag.Int("words", 2000, "dictionary size")
	mb := flag.Int64("mb", 4, "total corpus size in MiB")
	flag.Parse()

	cfg := gpufs.ScaledConfig(1.0 / 32)
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Generate a synthetic source tree and an aligned dictionary file
	// (every word on a 32-byte boundary, as the paper formats it).
	dict := workloads.MakeDictionary(*words)
	if err := sys.WriteHostFile("/grep/dict.txt", dict.Encode()); err != nil {
		log.Fatal(err)
	}
	tree, err := workloads.MakeTree(sys.Host(), sys.HostClock(), workloads.TreeSpec{
		Dir:        "/grep/src",
		NumFiles:   *files,
		TotalBytes: *mb << 20,
		Text:       workloads.TextSpec{Dict: dict, DictFraction: 0.4, Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	sys.ResetTime()

	blocks := 8 * cfg.MPsPerGPU
	gpuRes, err := workloads.GrepGPUfs(sys, 0, "/grep/dict.txt", tree.ListPath,
		"/grep/out.txt", cfg.GrepGPURate, blocks, 512, 0, 0)
	if err != nil {
		log.Fatal(err)
	}

	sys.ResetTime()
	cpuRes, err := workloads.GrepCPU(sys.Host(), dict, tree.Files, cfg.NumCPUCores, cfg.GrepCPURate)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("corpus: %d files, %.1f MiB; dictionary: %d words\n",
		len(tree.Files), float64(tree.Bytes)/(1<<20), len(dict.Words))
	fmt.Printf("GPU (GPUfs, %d blocks): %v virtual, %d (word,file) matches\n",
		blocks, gpuRes.Elapsed, len(gpuRes.Counts))
	fmt.Printf("CPU (%d cores):         %v virtual\n", cfg.NumCPUCores, cpuRes.Elapsed)
	fmt.Printf("speedup: %.1fx (the paper reports ~7x on its testbed)\n",
		float64(cpuRes.Elapsed)/float64(gpuRes.Elapsed))

	lines := gpuRes.SortedCounts()
	fmt.Println("\nfirst matches (word file count):")
	for i := 0; i < 5 && i < len(lines); i++ {
		fmt.Println("  " + lines[i])
	}

	// The GPU also wrote its results to /grep/out.txt with write-once
	// semantics; show that the output file exists on the host.
	out, err := sys.ReadHostFile("/grep/out.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGPU-written output file: %d bytes\n", len(out))
}

// Command tensorgen generates synthetic streaming sparse tensors in
// FROSTT .tns format (the streaming mode is appended as the last mode).
//
// Examples:
//
//	tensorgen -preset flickr -scale 0.5 -o flickr.tns
//	tensorgen -dims 1000,2000 -slices 50 -nnz 10000 -zipf 1.0 -o custom.tns
//	tensorgen -dims 2000,1500 -slices 10 -nnz 500000 -format spblk -o custom.spblk
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"spstream/internal/sptensor"
	"spstream/internal/sptensor/ooc"
	"spstream/internal/synth"
	"spstream/internal/version"
)

func main() {
	var (
		preset   = flag.String("preset", "", "built-in preset: patents, flickr, uber, nips")
		scale    = flag.Float64("scale", 0.2, "preset scale")
		dims     = flag.String("dims", "", "custom mode lengths, comma separated (non-streaming modes)")
		slices   = flag.Int("slices", 20, "custom: number of time slices")
		nnz      = flag.Int("nnz", 10000, "custom: nonzeros per slice")
		zipf     = flag.Float64("zipf", 0, "custom: Zipf exponent for index skew (0 = uniform)")
		rank     = flag.Int("rank", 8, "custom: planted low-rank structure rank (0 = count values)")
		noise    = flag.Float64("noise", 0.05, "custom: noise std dev on planted values")
		seed     = flag.Uint64("seed", 1, "random seed")
		out      = flag.String("o", "", "output .tns file (default stdout)")
		format   = flag.String("format", "tns", "output format: tns, binary, or spblk (block-partitioned out-of-core format; requires -o)")
		blockNNZ = flag.Int("block-nnz", 0, "spblk: target nonzeros per block (0 = default)")
		split    = flag.Bool("split", false, "spblk: write one file per time slice into the -o directory (cpstream's out-of-core stream input)")
		showVer  = flag.Bool("version", false, "print version/build information and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("tensorgen", version.String())
		return
	}

	cfg, err := buildConfig(*preset, *scale, *dims, *slices, *nnz, *zipf, *rank, *noise, *seed)
	if err != nil {
		fatal(err)
	}
	stream, err := synth.Generate(cfg)
	if err != nil {
		fatal(err)
	}
	tensor := sptensor.Merge(stream)
	fmt.Fprintf(os.Stderr, "tensorgen: dims=%v (streaming mode last) nnz=%d\n", tensor.Dims, tensor.NNZ())

	f := *format
	if f == "spblk" {
		// The block format is written directly (atomic temp + rename),
		// not through a stream, so it needs a path.
		if *out == "" {
			fatal(fmt.Errorf("-format spblk requires -o"))
		}
		if *split {
			// One .spblk file per time slice, ready for cpstream's
			// out-of-core directory input.
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatal(err)
			}
			for i, x := range stream.Slices {
				path := filepath.Join(*out, fmt.Sprintf("slice-%04d.spblk", i))
				if err := ooc.WriteTensor(path, x, *blockNNZ); err != nil {
					fatal(err)
				}
			}
			fmt.Fprintf(os.Stderr, "tensorgen: wrote %d slice files under %s\n", len(stream.Slices), *out)
			return
		}
		if err := ooc.WriteTensor(*out, tensor, *blockNNZ); err != nil {
			fatal(err)
		}
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch f {
	case "binary":
		err = sptensor.WriteBinary(w, tensor)
	case "tns":
		err = sptensor.WriteTNS(w, tensor)
	default:
		err = fmt.Errorf("unknown format %q (want tns, binary, spblk)", f)
	}
	if err != nil {
		fatal(err)
	}
}

func buildConfig(preset string, scale float64, dims string, slices, nnz int, zipf float64, rank int, noise float64, seed uint64) (synth.Config, error) {
	if preset != "" {
		cfg, err := synth.Preset(preset, scale)
		if err != nil {
			return synth.Config{}, err
		}
		cfg.Seed = seed
		return cfg, nil
	}
	if dims == "" {
		return synth.Config{}, fmt.Errorf("one of -preset or -dims is required")
	}
	var dists []synth.IndexDist
	for _, part := range strings.Split(dims, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || d < 1 {
			return synth.Config{}, fmt.Errorf("bad dimension %q", part)
		}
		if zipf > 0 {
			dists = append(dists, synth.NewZipf(d, zipf))
		} else {
			dists = append(dists, synth.Uniform{N: d})
		}
	}
	cfg := synth.Config{
		Name:        "custom",
		Dists:       dists,
		T:           slices,
		NNZPerSlice: nnz,
		Seed:        seed,
	}
	if rank > 0 {
		cfg.Values = synth.ValuePlanted
		cfg.PlantedRank = rank
		cfg.NoiseStd = noise
	}
	return cfg, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tensorgen:", err)
	os.Exit(1)
}

// Command gsfl-datagen renders synthetic GTSRB samples to disk, either
// as PNG images (for eyeballing the generator) or as a CSV of flattened
// features (for external tooling).
//
// Example:
//
//	gsfl-datagen -per-class 3 -size 32 -format png -out samples/
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"os"
	"path/filepath"
	"strconv"

	"gsfl/env"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gsfl-datagen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gsfl-datagen", flag.ContinueOnError)
	var (
		perClass = fs.Int("per-class", 2, "samples per class")
		size     = fs.Int("size", 32, "image edge length in pixels")
		format   = fs.String("format", "png", "output format: png|csv")
		outDir   = fs.String("out", "samples", "output directory")
		seed     = fs.Int64("seed", 1, "random seed")
		noise    = fs.Float64("noise", 0.08, "pixel noise standard deviation")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *perClass <= 0 {
		return fmt.Errorf("-per-class %d must be positive", *perClass)
	}

	src, err := env.NewDataset(env.DefaultDataset, env.DataConfig{
		ImageSize: *size,
		Seed:      *seed,
		Options:   map[string]float64{"noise_std": *noise},
	})
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	// Balanced draws perClass samples of class 0, then of class 1, …:
	// sample i is number i%perClass of class i/perClass.
	ds := src.Balanced(*perClass)
	switch *format {
	case "png":
		return writePNGs(ds, *outDir, *perClass, *size)
	case "csv":
		return writeCSV(ds, *outDir, *size)
	default:
		return fmt.Errorf("unknown format %q (want png|csv)", *format)
	}
}

func writePNGs(ds env.Dataset, dir string, perClass, size int) error {
	plane := size * size
	for i := 0; i < ds.Len(); i++ {
		feats, label := ds.Sample(i)
		img := image.NewRGBA(image.Rect(0, 0, size, size))
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				p := y*size + x
				img.Set(x, y, color.RGBA{
					R: uint8(feats[p] * 255),
					G: uint8(feats[plane+p] * 255),
					B: uint8(feats[2*plane+p] * 255),
					A: 255,
				})
			}
		}
		name := filepath.Join(dir, fmt.Sprintf("class%02d_sample%02d_label%02d.png", i/perClass, i%perClass, label))
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := png.Encode(f, img); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d PNGs to %s\n", ds.Len(), dir)
	return nil
}

func writeCSV(ds env.Dataset, dir string, size int) error {
	path := filepath.Join(dir, "gtsrb_synthetic.csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := make([]string, 1, 1+3*size*size)
	header[0] = "label"
	for i := 0; i < 3*size*size; i++ {
		header = append(header, "p"+strconv.Itoa(i))
	}
	if err := w.Write(header); err != nil {
		return err
	}
	for i := 0; i < ds.Len(); i++ {
		feats, label := ds.Sample(i)
		rec := make([]string, 1, 1+len(feats))
		rec[0] = strconv.Itoa(label)
		for _, v := range feats {
			rec = append(rec, strconv.FormatFloat(v, 'f', 4, 64))
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	fmt.Printf("wrote %d samples to %s\n", ds.Len(), path)
	return f.Close()
}

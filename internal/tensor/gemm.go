package tensor

import (
	"fmt"
	"sync"

	"gsfl/internal/parallel"
)

// The GEMM engine: one row-indirect plan.
//
// Every product the package computes runs on a rowPlan: the plain
// matmul, a dense layer's three (y = x@W, dx = dy@Wᵀ, dW = xᵀ@dy) and a
// convolution's three (the forward pass, the weight gradient and the
// input gradient). A plan packs only the product's small operand into
// NR-column panels, once however many large operands read it, and a
// row-indirect micro-kernel reads the large one where it lies through
// two offset tables: a convolution's padded image or its output
// gradient laid on a canvas, the padded images of a whole batch, a dense
// layer's W, or an output gradient dy. The batch calls a convolution
// layer makes (ConvForwardBatchInto, ConvWeightGradBatchInto,
// ConvInputGradBatchInto) use one plan per call: the forward pass and
// the input gradient let every image of the batch read it, and the
// weight gradient is one product over all of the batch's images.
//
// Plans are owned, not leased: a GEMM holds one plan per kind of
// product, and a layer holds a GEMM, so a training step's products take
// no lock. Each plan keeps its offset tables from call to call and
// refills them only when its product's geometry changes, into storage
// that only grows; a dense product packs into Panels its owner keeps
// too. A convolution leases one buffer a call from packPool, for what
// holds its batch of images — its canvases, the weight gradient's packed
// dy — and its packed weights ride in that lease; a forked chunk leases
// its own scratch. The exported functions are the same code on a GEMM
// taken from a sync.Pool, so steady-state calls allocate nothing unless
// they fork.
//
// Determinism: a plan's k steps fall into groups of equal length — one
// group of all k for a dense product and a convolution's forward pass,
// one per image for the weight gradient and one per kernel tap for the
// input gradient. Every output element is one accumulator per
// group, over that group's terms in ascending order, and the groups'
// results are added onto it in ascending order: the first group's
// kernel call stores the tile, each later one adds its tile onto it.
// Chunk boundaries fall between MR-row blocks and never change any
// element's accumulation sequence, so results are bit-identical at any
// worker count — the same contract the previous scalar kernels had. The
// kernels round every multiply and add separately (scalar and AVX2
// paths agree bit-for-bit). The one exception is the FMA kernel that
// AcquireNumericMode("fast") swaps in for the benchmark's probe of it
// (see numeric.go): still worker-count-independent, but only
// tolerance-comparable to the exact kernels.

const (
	// gemmMR × gemmNR is the micro-kernel register tile: 4 rows × 8
	// columns = eight 4-wide vector accumulators, which fits the 16
	// architectural vector registers on amd64 with room for operands.
	gemmMR = 4
	gemmNR = 8
)

// packPool services what a product does not own: a convolution call's
// one buffer — its canvases or the weight gradient's packed dy and row
// sums, with its packed weights — and each forked chunk's spill tile and
// canvas. Buffers are size-bucketed, so the steady state of a training
// loop reuses the same handful round after round.
var packPool Pool

// leaseHook, nil outside tests, is called on every lease from packPool.
var leaseHook func()

// lease takes n elements from packPool; return them with
// packPool.PutSlice.
func lease(n int) []float64 {
	if leaseHook != nil {
		leaseHook()
	}
	return packPool.GetSlice(n)
}

// rowKernFunc computes one MR×NR tile of a row-indirect product over
// the full extent of koff: element (r, j) is the sum over kk of
// bp[kk*NR+j] · x[rows[r]+koff[kk]], where bp is a packed panel of the
// small operand, in one accumulator that starts at +0. The tile is
// stored transposed, column j at c[j*ldc]: it overwrites c, or with add
// it is added onto what c holds (c + tile, element by element). koff
// must not be empty. The pair form needs no type of its own: it is a
// rowKernFunc that reads 2·MR rows and stores 2·MR-long columns, with
// the result two calls would give, bit for bit.
type rowKernFunc func(x []float64, rows, koff []int, bp, c []float64, ldc int, add bool)

// rowKernExact / rowKernFast are the active micro-kernels, overridden at
// init by the amd64 vector kernels when the CPU supports them. The exact
// one is always bit-identical to its generic body; the fast one may
// contract multiply-adds (FMA) and falls back to the exact kernel on
// hardware without FMA.
var (
	rowKernExact rowKernFunc = rowKernExactGeneric
	rowKernFast  rowKernFunc = rowKernExactGeneric
)

// rowKernExactPair is the exact kernel's pair form, nil unless init
// found hardware with a register file wide enough for it (AVX-512 on
// amd64). The tile driver hands it two full row blocks at a time and
// everything else — ragged tiles, the odd last block of a chunk, fast
// mode — to the 4×8 kernels.
var rowKernExactPair rowKernFunc

// pairMinSteps is the least pair-kernel work — full 8×8 tiles times k,
// i.e. k steps of the pair kernel's inner loop — a product must offer
// before the tile driver uses the pair kernel at all. A core that
// executes 512-bit multiplies runs everything at a lower clock for a
// while afterwards, so a product with a handful of short tiles taxes the
// rest of the program by more than it saves itself: measured on the
// benchmark host, a server step of the load generator's 32→4 layer (4
// tiles, k = 4: 16 steps) made its round 5–8 % slower, while the
// smallest convolution of an 8-pixel job (≥ 192 steps) is where the gain
// starts (ARCHITECTURE, "Blocking scheme"). The gate is a property of
// the operands, so it is the same at any worker count, and it cannot be
// seen in any bit.
const pairMinSteps = 64

// pairWorthwhile reports whether a product of rows × outC outputs over
// k clears pairMinSteps.
func pairWorthwhile(rows, k, outC int) bool {
	return (rows/(2*gemmMR))*(outC/gemmNR)*k >= pairMinSteps
}

// cpu records what the amd64 CPUID probe found, once, at init; every
// field is false elsewhere and in a purego build, which compiles no
// assembly. It is the only thing that selects between a portable body
// and an assembly one at run time — for the micro-kernels above and for
// the elementwise bodies in vec.go alike.
var cpu struct{ avx2, fma, avx512 bool }

// rowKernels returns the kernels for a product of the given rows, k
// and outC: the exact 4×8 kernel and, when the product clears
// pairWorthwhile, its pair form; while "fast" is held, the FMA kernel
// alone.
func rowKernels(rows, k, outC int) (kern, pair rowKernFunc) {
	if numericReassoc.Load() {
		return rowKernFast, nil
	}
	if !pairWorthwhile(rows, k, outC) {
		return rowKernExact, nil
	}
	return rowKernExact, rowKernExactPair
}

// rowPlan is one row-indirect product,
//
//	dst[oc][r] = Σ_kk dense[oc][kk] · x[row[r] + koff[kk]]
//
// with dense (outC × k) small and x large: the kernels, the two offset
// tables and dense, packed into bp. x is the micro-kernel's broadcast
// operand and is read where it lies; only dense is packed — once per
// call, however many x's read it. shape readies the tables and the
// caller packs dense. The k steps are summed in groups of group steps
// (see the determinism contract above). A plan lives in a GEMM and is
// reused call after call.
//
// Rows past a ragged last block read at the past-row offset the plan
// was built with; those lanes only ever reach the spill tile, so the
// kernel has no edge path. MR-row blocks are partitioned across the
// worker pool. Its uses:
//
//   - Convolution forward (convForward). In padded coordinates the
//     column matrix of an image is a sum of two offset tables,
//     col[t][p] = x[tap[t] + pos[p]] (paddedGrids), so (row, koff) =
//     (pos, tap); x is the padded copy of each image in turn, and past
//     rows read its zero half.
//   - Convolution weight gradient (convWeightGrad): (row, koff) =
//     (tap, pos), k running over the positions of every image of the
//     batch, and x the batch's padded copies side by side. koff holds
//     one image's positions and is read once per image, against x
//     shifted by one canvas each time (shift).
//   - Convolution input gradient (convInputGrad): rows are input
//     pixels, k runs over (tap, output channel) and x is each output
//     gradient laid on a canvas (see there).
//   - A row-major matrix read in place (denseInto), whose two tables are
//     lines and whose past rows read its row 0. With b (k×n) read in
//     place, koff[kk] = kk·n and row[r] = r: the matmul a@b, a dense
//     layer's forward y = x@W, has dense = a; aᵀ@b, a dense layer's
//     weight gradient xᵀ@dy, has dense = a stored (k×m), kMajor. A dense
//     layer's input gradient dx = dy@Wᵀ reads W (in×out) with koff[kk]
//     = kk and row[r] = r·out, and has dense = dy.
type rowPlan struct {
	kern, pair   rowKernFunc
	koff, rowOff []int     // refilled only when geo changes
	bp           []float64 // dense, packed into k×NR panels, for this call
	geo          planGeo   // what koff and rowOff were filled for

	// The k steps are k/|koff| passes over koff, pass j reading x
	// shifted by j·shift, in groups of group steps.
	k, shift, group     int
	outC, rows, rblocks int
	grain               int
}

// planGeo is what a plan's offset tables are a function of. The zero
// value is the geometry of the empty product, whose tables are empty, so
// a zero rowPlan is already shaped for it.
type planGeo struct {
	outC           int
	kGrid, rowGrid offsetGrid
	pastRow        int
}

// shape readies p for an (outC × k) dense operand against an x of xLen
// elements: k = reps·|kGrid| steps, koff the points of kGrid read reps
// times, pass j against x shifted by j·shift, the rows' offsets the
// points of rowGrid, past rows at pastRow, and all k steps one group.
// The tables are refilled only when the grids differ from the last
// call's, into storage that grows but never shrinks, so a batch size
// that alternates between a full and a ragged one allocates nothing
// after the first of each. The caller packs dense into p.bp. The
// kernels index x with no bounds check, so shape panics unless every
// offset they will read — the largest row (past rows included) plus the
// largest koff, on the last pass — is inside x.
func (p *rowPlan) shape(outC int, kGrid, rowGrid offsetGrid, pastRow, xLen, reps, shift int) {
	k, rows := reps*kGrid.size(), rowGrid.size()
	rblocks := (rows + gemmMR - 1) / gemmMR
	if k > 0 && rows > 0 {
		hi := rowGrid.hi()
		if rblocks*gemmMR > rows {
			hi = max(hi, pastRow)
		}
		if end := hi + kGrid.hi() + (reps-1)*shift; end >= xLen {
			panic(fmt.Sprintf("tensor: row plan reads x[%d], past its %d elements", end, xLen))
		}
	}
	p.kern, p.pair = rowKernels(rows, k, outC)
	p.k, p.shift, p.group = k, shift, k
	p.grain = grainRows(2 * k * outC * gemmMR)
	geo := planGeo{outC, kGrid, rowGrid, pastRow}
	if geo == p.geo {
		return
	}
	p.geo, p.outC, p.rows, p.rblocks = geo, outC, rows, rblocks
	p.koff, p.rowOff = grown(p.koff, kGrid.size()), grown(p.rowOff, rblocks*gemmMR)
	kGrid.fill(p.koff)
	rowGrid.fill(p.rowOff)
	for r := rows; r < len(p.rowOff); r++ {
		p.rowOff[r] = pastRow
	}
}

// grown returns s resliced to n elements, or a fresh n-element slice
// when s is too small for them.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// panelLen is the length of the packed panels of an (outC × k) dense
// operand.
func panelLen(outC, k int) int { return (outC + gemmNR - 1) / gemmNR * k * gemmNR }

// GEMM is the state one owner keeps for the products it runs: a plan for
// each kind — the forward product, the input gradient, the weight
// gradient — whose offset tables persist from call to call, and the
// Panels its dense products pack into. A dense or convolution layer
// holds one, so a dense layer's training step leases nothing and takes
// no lock, and a convolution's leases one buffer a product, for its
// batch of images. Plans and panels only grow: after the first call of
// each shape a GEMM's calls allocate nothing unless they fork.
//
// The zero value is ready to use. A GEMM must not be used by two
// goroutines at once; the results it writes are those of the matching
// package function, bit for bit.
type GEMM struct {
	// Panels is the scratch the GEMM's dense products pack into and its
	// inline products stage ragged tiles in; nil gets the GEMM its own on
	// first use. GEMMs that never run at once — the layers of one
	// network — may share one.
	Panels *Panels

	fwd, inGrad, wGrad rowPlan

	// A convolution call's operands, for its loop bodies: plan p's
	// product of each item of src placed on cv, into dst with bias[oc]
	// added to row oc (images), or of the images of src on canvases
	// against dy packed into p.bp with its channel sums in sums
	// (packImages).
	p                  *rowPlan
	cv                 canvas
	dst, bias, src     []float64
	dy, canvases, sums []float64
	// images and packImages, bound once: a batch call that forks hands
	// parallel.For a stored body rather than a fresh closure, so it
	// allocates nothing of its own. At two workers every conv layer call
	// of a training step forks, and one closure a call was 9 MiB of
	// garbage over a sim_paper pass, which runs no collection after its
	// set-up.
	imagesBody, packBody func(lo, hi int)
}

// Panels is where a dense product packs its small operand, and where an
// inline product stages its ragged tiles: one buffer that grows, to
// exactly the largest operand it has held, and the spill tile. A
// product uses it only for the length of its call.
type Panels struct {
	buf   []float64
	spill [gemmMR * gemmNR]float64
}

// gemms lends GEMMs to the package functions.
var gemms = sync.Pool{New: func() any { return new(GEMM) }}

// scratch returns the GEMM's Panels, made on first use.
func (gm *GEMM) scratch() *Panels {
	if gm.Panels == nil {
		gm.Panels = new(Panels)
	}
	return gm.Panels
}

// packed returns the panel buffer sized for an (outC × k) dense
// operand.
func (pn *Panels) packed(outC, k int) []float64 {
	pn.buf = grown(pn.buf, panelLen(outC, k))
	return pn.buf
}

// done drops what the call read and wrote, so that nothing its caller
// lent it outlives the call in the GEMM.
func (gm *GEMM) done(p *rowPlan) {
	p.bp, gm.p = nil, nil
	gm.dst, gm.bias, gm.src = nil, nil, nil
	gm.dy, gm.canvases, gm.sums = nil, nil, nil
}

// convForward is ConvForwardBatchInto past its checks: n images of src
// against w (outC × InC·KH·KW), packed once for the call and forked
// across the images. x is a padded copy of each image and its zero half
// (paddedGrids).
func (gm *GEMM) convForward(dst, w []float64, outC int, bias, src []float64, n int, g ConvGeom) {
	kGrid, rowGrid, cv := paddedGrids(g)
	size := cv.size()
	p := &gm.fwd
	p.shape(outC, kGrid, rowGrid, size, 2*size, 1, 0)
	gm.p, gm.cv, gm.dst, gm.bias, gm.src = p, cv, dst, bias, src
	gm.eachImage(n, panelLen(outC, p.k), func(bp []float64) {
		packBTrans(bp, w, p.k, outC, p.k*gemmNR, nil)
	})
}

// convWeightGrad is ConvWeightGradBatchInto past its checks, or with db
// nil ConvMatMulTransBInto: the weight-gradient product of n output
// gradients dy_i (outC × OutH·OutW) against n images x_i of g's
// geometry,
//
//	dw[oc][t] = Σ_i Σ_p dy_i[oc][p] · im2col(x_i)[t][p]
//
// Rows are taps t = (c, kh, kw); k runs over (image, position), image
// major, in n groups of one image's positions. x is the n images on n
// consecutive canvases (paddedGrids), so image i's positions are the
// first image's shifted by i canvases: koff is one image's, read once
// per image against x shifted by a canvas. Past rows read at offset 0,
// as in denseInto: their lanes reach only the spill tile's discarded
// rows, so no zero half is needed. The dense operand is dy, packed by
// packImages (forked across the images): image i fills panel rows
// [i·spatial, (i+1)·spatial) and leaves the row sums of dy_i — the bias
// gradient's terms — in sums. The canvases, the panels and the sums hold
// the whole batch and share one lease.
//
// Why the bits are the per-image sum's: every element comes out as
// ((s₀ + s₁) + …) over the images in ascending order, each s_i the
// ascending accumulator over positions that starts at +0 — what one
// image's ConvMatMulTransBInto stores. Adding those onto a zeroed dw in
// image order gives ((+0 + s₀) + s₁) + …, and +0 + s₀ = s₀ because s₀
// is never −0: under round-to-nearest a sum that starts at +0 reaches −0
// only by adding −0 to −0. The same holds for each row sum, so the bias
// gradient folded in image order — the first image stores, each later
// one adds — is what accumulating onto a zeroed db gave, bit for bit.
// This is convInputGrad's argument, over images instead of taps.
func (gm *GEMM) convWeightGrad(dw, db, dy []float64, outC int, src []float64, n int, g ConvGeom) {
	taps, pos, cv := paddedGrids(g)
	spatial, size := pos.size(), cv.size()
	p := &gm.wGrad
	p.shape(outC, pos, taps, 0, n*size, n, size)
	p.group = spatial
	xLen, sLen, bLen := n*size, n*outC, panelLen(outC, p.k)
	buf := lease(xLen + sLen + bLen)
	p.bp = buf[xLen+sLen:][:bLen]
	gm.p, gm.cv, gm.src, gm.dy = p, cv, src, dy
	gm.canvases, gm.sums = buf[:xLen], buf[xLen:][:sLen]
	if gm.packBody == nil {
		gm.packBody = gm.packImages
	}
	parallel.For(n, 1, gm.packBody)
	if db != nil {
		// In image order, the first image storing: see above.
		if n == 0 {
			clear(db)
		}
		for i := 0; i < n; i++ {
			s := gm.sums[i*outC:][:outC]
			if i == 0 {
				copy(db, s)
				continue
			}
			for oc, v := range s {
				db[oc] += v
			}
		}
	}
	p.run(dw, gm.canvases, gm.scratch().spill[:])
	packPool.PutSlice(buf)
	gm.done(p)
}

// convInputGrad is ConvInputGradBatchInto past its checks: the
// input-gradient product of w (outC × InC·T, T = KH·KW taps) against n
// output gradients of g's geometry,
//
//	dx[c][ih][iw] = Σ_t Σ_oc w[oc][c·T+t] · dy[oc][oh][ow]
//
// over the taps t = (kh, kw) and output positions (oh, ow) with
// ih = oh·StrideH − PadH + kh and iw = ow·StrideW − PadW + kw — what
// col2im makes of the column gradients wᵀ@dy. Rows are input pixels and
// k runs over taps, tap-major with oc inside, in groups of outC: one per
// tap. The dense operand is w rearranged as it is packed (packTaps):
// B[t·outC+oc][c] = w[oc][c·T+t], once for the call.
//
// x is dy laid on a canvas: outC zeroed planes of H′ × W′ =
// (InH+KH−1) × (InW+KW−1), dy[oc][oh][ow] at (oh·StrideH + KH−1−PadH,
// ow·StrideW + KW−1−PadW), anything outside cropped — for stride 1 and
// PadH ≤ KH−1 that is dy zero-padded by KH−1−PadH. Pixel
// (ih, iw) is at offset ih·W′+iw and tap (kh, kw, oc) at oc·H′W′ +
// (KH−1−kh)·W′ + (KW−1−kw), so the kernel reads dy[oc][oh][ow] exactly
// where ih − kh = oh·StrideH − PadH, and a zero of the canvas wherever
// the tap puts the pixel under no output position. Past rows read the
// zero half after the canvas, as in the forward pass.
//
// Why the bits are col2im's: every element comes out as ((s₀ + s₁) + …)
// over the taps in ascending order, each s_t one ascending accumulator
// over oc that starts at +0 — the sum a column-gradient element holds,
// added in the order col2im visits taps. A tap that falls on the
// canvas's zeros gives s_t = +0 when the weights are finite, and
// x + (+0) = x for every x but −0; no partial sum is ever −0, because
// under round-to-nearest a sum that starts at +0 reaches −0 only by
// adding −0 to −0. So adding the zero taps col2im skipped moves no bit,
// and starting from s₀ rather than from a zeroed dx moves none either.
// The one divergence is a non-finite weight: it turns a zero tap into
// NaN where col2im skipped the term — as the forward pass already
// multiplies w by its padding zeros.
func (gm *GEMM) convInputGrad(dx, w []float64, outC int, dy []float64, n int, g ConvGeom) {
	cv := canvas{c: outC, h: g.OutH(), w: g.OutW(), ch: g.InH + g.KH - 1, cw: g.InW + g.KW - 1,
		oh: g.KH - 1 - g.PadH, ow: g.KW - 1 - g.PadW, sh: g.StrideH, sw: g.StrideW}
	kGrid := offsetGrid{o: (g.KH-1)*cv.cw + g.KW - 1,
		d0: g.KH, d1: g.KW, d2: outC, s0: -cv.cw, s1: -1, s2: cv.ch * cv.cw}
	rowGrid := offsetGrid{d0: 1, d1: g.InH, d2: g.InW, s1: cv.cw, s2: 1}
	size := cv.size()
	p := &gm.inGrad
	p.shape(g.InC, kGrid, rowGrid, size, 2*size, 1, 0)
	p.group = outC
	gm.p, gm.cv, gm.dst, gm.src = p, cv, dx, dy
	gm.eachImage(n, panelLen(g.InC, p.k), func(bp []float64) {
		packTaps(bp, w, outC, g.InC, g.KH*g.KW)
	})
}

// eachImage runs gm.p's product over n items (images): it leases one
// buffer for the call, packs the product's weights into its first
// bLen elements with pack and — when the call does not fork — runs every
// item on the canvas in the rest of it. A call that forks hands the
// items to the pool, and each chunk leases its own canvas. The weights
// are packed once however many items read them, and the layer keeps
// nothing of them between calls: a convolution leases a buffer a call
// for its batch of images anyway, and the weights ride in it.
func (gm *GEMM) eachImage(n, bLen int, pack func(bp []float64)) {
	inline, cLen := parallel.Inline(n, 1), 0
	if inline {
		cLen = gm.canvasLen()
	}
	buf := lease(bLen + cLen)
	gm.p.bp = buf[:bLen]
	pack(gm.p.bp)
	if inline {
		gm.imagesOn(buf[bLen:], 0, n)
	} else {
		if gm.imagesBody == nil {
			gm.imagesBody = gm.images
		}
		parallel.For(n, 1, gm.imagesBody)
	}
	packPool.PutSlice(buf)
	gm.done(gm.p)
}

// run computes the plan's product against x into dst, (outC × rows)
// row-major, over every row block — partitioned across the worker pool
// when the product is more than one chunk. spill stages ragged tiles.
// With k zero it clears dst: no kernel takes an empty offset table.
func (p *rowPlan) run(dst, x, spill []float64) {
	switch {
	case p.k == 0:
		clear(dst[:p.outC*p.rows])
	case parallel.Inline(p.rblocks, p.grain):
		p.chunk(dst, x, spill, 0, p.rblocks)
	default:
		rowPlanParallel(p, dst, x)
	}
}

// images computes gm.p's product of items [lo, hi) of gm.src, each
// placed on gm.cv and writing its own (outC × rows) block of gm.dst, and
// adds gm.bias[oc] to every element of row oc. The canvas, its zero half
// and the spill tile share one lease. The canvas is cleared once: every
// item lands on the same positions, so the rest stays zero from item to
// item. The zero half is cleared only when there are past rows to read
// it.
func (gm *GEMM) images(lo, hi int) {
	buf := lease(gm.canvasLen())
	gm.imagesOn(buf, lo, hi)
	packPool.PutSlice(buf)
}

// canvasLen is the length of the buffer images works in.
func (gm *GEMM) canvasLen() int { return 2*gm.cv.size() + gemmMR*gemmNR }

// imagesOn is images on buf, canvasLen elements.
func (gm *GEMM) imagesOn(buf []float64, lo, hi int) {
	p, cv := gm.p, gm.cv
	outSize, srcSize, size := p.outC*p.rows, cv.srcSize(), cv.size()
	x, spill := buf[:size], buf[2*size:]
	if p.rblocks*gemmMR > p.rows {
		x = buf[:2*size]
	}
	clear(x)
	for i := lo; i < hi; i++ {
		out := gm.dst[i*outSize : (i+1)*outSize]
		cv.place(x, gm.src[i*srcSize:(i+1)*srcSize])
		p.run(out, x, spill)
		for oc, b := range gm.bias {
			row := out[oc*p.rows : (oc+1)*p.rows]
			for j := range row {
				row[j] += b
			}
		}
	}
}

// packImages readies images [lo, hi) of the weight-gradient product
// (convWeightGrad): image i of src is placed on canvas i, and dy_i
// packed into its rows of every panel, its channel sums in sums.
func (gm *GEMM) packImages(lo, hi int) {
	p, cv := gm.p, gm.cv
	size, srcSize, spatial := cv.size(), cv.srcSize(), p.group
	outSize, stride := p.outC*spatial, p.k*gemmNR
	for i := lo; i < hi; i++ {
		x := gm.canvases[i*size:][:size]
		clear(x)
		cv.place(x, gm.src[i*srcSize:][:srcSize])
		packBTrans(p.bp[i*spatial*gemmNR:], gm.dy[i*outSize:][:outSize], spatial, p.outC, stride, gm.sums[i*p.outC:][:p.outC])
	}
}

// rowPlanParallel is run's fork-join path, split out so its closure
// (and the escape of everything it captures) is only paid when the
// product is big enough to fan out. Each chunk leases its own spill
// tile.
func rowPlanParallel(p *rowPlan, dst, x []float64) {
	parallel.For(p.rblocks, p.grain, func(blo, bhi int) {
		spill := lease(gemmMR * gemmNR)
		p.chunk(dst, x, spill, blo, bhi)
		packPool.PutSlice(spill)
	})
}

// chunk runs the row-indirect micro-kernel over every tile of row blocks
// [blo, bhi) against x, once per group of k steps, groups in ascending
// order: the first group's calls store each tile, each later group's
// add onto it. Full tiles are stored straight into dst, which is
// (outC × rows) row-major — the kernel's transposed store; ragged ones
// go through spill (heap-backed, so that passing it to the kernel does
// not force a per-call allocation) and only their live part is copied
// out, or added. The loop over groups is outermost, so a product of one
// group — every product but the input gradient — adds nothing to a
// kernel call: a dense layer's weight gradient, whose k is the batch,
// makes hundreds of 8-step calls. Step g reads koff[g mod |koff|]
// against x shifted by ⌊g / |koff|⌋ passes (shape); a group never
// straddles two passes.
//
// When pair is not nil, two full row blocks at a time go to it wherever
// the column panel is full too. A pair never straddles a chunk boundary
// and computes each element exactly as kern would, so neither the
// worker count nor the presence of pair is visible in any bit.
func (p *rowPlan) chunk(dst, x, spill []float64, blo, bhi int) {
	kern, pair, rowOff, bp := p.kern, p.pair, p.rowOff, p.bp
	rows, outC, k, pass := p.rows, p.outC, p.k, len(p.koff)
	for g := 0; g < k; g += p.group {
		koff, xg, add := p.koff[g%pass:][:p.group], x[g/pass*p.shift:], g > 0
		for bi := blo; bi < bhi; {
			blocks := 1
			if pair != nil && bi+2 <= bhi && (bi+2)*gemmMR <= rows {
				blocks = 2
			}
			for j0 := 0; j0 < outC; j0 += gemmNR {
				jb := min(outC-j0, gemmNR)
				bpan := bp[j0*k+g*gemmNR:]
				if blocks == 2 && jb == gemmNR {
					pair(xg, rowOff[bi*gemmMR:], koff, bpan, dst[j0*rows+bi*gemmMR:], rows, add)
					continue
				}
				for b := bi; b < bi+blocks; b++ {
					r0 := b * gemmMR
					rb := min(rows-r0, gemmMR)
					if rb == gemmMR && jb == gemmNR {
						kern(xg, rowOff[r0:], koff, bpan, dst[j0*rows+r0:], rows, add)
						continue
					}
					kern(xg, rowOff[r0:], koff, bpan, spill, gemmMR, false)
					for j := 0; j < jb; j++ {
						d, s := dst[(j0+j)*rows+r0:][:rb], spill[j*gemmMR:][:rb]
						if !add {
							copy(d, s)
							continue
						}
						for r, v := range s {
							d[r] += v
						}
					}
				}
			}
			bi += blocks
		}
	}
}

// denseInto runs p as a product against a row-major matrix x read in
// place (see rowPlan): dense — (outC × k), or kMajor (k × outC) —
// against x through kGrid and rowGrid. Past rows read at row 0, which
// every table keeps inside x.
func (gm *GEMM) denseInto(p *rowPlan, dst, dense []float64, kMajor bool, outC int, x []float64, kGrid, rowGrid offsetGrid) {
	p.shape(outC, kGrid, rowGrid, 0, len(x), 1, 0)
	pn := gm.scratch()
	p.bp = pn.packed(outC, p.k)
	if kMajor {
		packB(p.bp, dense, p.k, outC)
	} else {
		packBTrans(p.bp, dense, p.k, outC, p.k*gemmNR, nil)
	}
	p.run(dst, x, pn.spill[:])
	gm.done(p)
}

// ConvInputGradBatchInto computes a convolution's input gradient for a
// whole batch: for each of the n output gradients of dy (each
// (outC × OutH*OutW)), dx_i = col2im(wᵀ @ dy_i), where w is
// (outC × InC*KH*KW) and dx, whose leading dimension is n, receives n
// CHW images of g's geometry. Every element of dx is overwritten. No
// column gradient is materialized: each tile of dx_i is computed tap by
// tap in col2im's order (convInputGrad), so the result is bit-identical
// to n MatMulTransAInto calls scattered back by a per-element col2im
// onto zeroed images, at any worker count, as long as w is finite.
//
// w is rearranged and packed once for the batch, and every image reads
// that one read-only plan; images are partitioned across the worker
// pool, each writing its own dx_i. It returns dx.
func ConvInputGradBatchInto(dx, w, dy *Tensor, g ConvGeom) *Tensor {
	gm := gemms.Get().(*GEMM)
	gm.ConvInputGradBatchInto(dx, w, dy, g)
	gemms.Put(gm)
	return dx
}

// ConvInputGradBatchInto is the package function on gm's plans.
func (gm *GEMM) ConvInputGradBatchInto(dx, w, dy *Tensor, g ConvGeom) *Tensor {
	spatial := g.OutH() * g.OutW()
	outC := checkConvDense("ConvInputGradBatchInto", w, g.InC*g.KH*g.KW, g)
	n := checkConvBatch("ConvInputGradBatchInto", dx, g.ImageSize(), dy, outC*spatial, g)
	gm.convInputGrad(dx.Data, w.Data, outC, dy.Data, n, g)
	return dx
}

// ConvForwardBatchInto computes a convolution's forward pass for a whole
// batch: for each of the n images of x (n is its leading dimension; each
// image one CHW image of g's geometry), dst_i = w @ im2col(x_i), plus
// b[oc] on every element of row oc when b is not nil. w is
// (outC × InC*KH*KW) and dst receives n (outC × OutH*OutW) outputs.
//
// w is packed and the two offset tables filled once for the batch, and
// every image reads that one read-only plan. Images are partitioned
// across the worker pool, each writing its own output, so the result is
// bit-identical to n ConvMatMulInto calls followed by the bias add, at
// any worker count. It returns dst.
func ConvForwardBatchInto(dst, w, b, x *Tensor, g ConvGeom) *Tensor {
	gm := gemms.Get().(*GEMM)
	gm.ConvForwardBatchInto(dst, w, b, x, g)
	gemms.Put(gm)
	return dst
}

// ConvForwardBatchInto is the package function on gm's plans.
func (gm *GEMM) ConvForwardBatchInto(dst, w, b, x *Tensor, g ConvGeom) *Tensor {
	k, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	outC := checkConvDense("ConvForwardBatchInto", w, k, g)
	n := checkConvBatch("ConvForwardBatchInto", x, g.ImageSize(), dst, outC*spatial, g)
	var bias []float64
	if b != nil {
		if b.Size() != outC {
			panic(fmt.Sprintf("tensor: ConvForwardBatchInto: bias has %d elements, want %d", b.Size(), outC))
		}
		bias = b.Data
	}
	gm.convForward(dst.Data, w.Data, outC, bias, x.Data, n, g)
	return dst
}

// ConvWeightGradBatchInto computes a convolution's parameter gradients
// for a whole batch: dw = Σ_i dy_i @ im2col(x_i)ᵀ and
// db[oc] = Σ_i (the sum of row oc of dy_i), over the n images of x
// (n is its leading dimension; each one CHW image of g's geometry) and
// the n output gradients of dy (each (outC × OutH*OutW)). dw is
// (outC × InC*KH*KW) and db has outC elements; every element of both is
// overwritten.
//
// It is one product (convWeightGrad): dy is packed, each image's row
// sums taken and each image padded once for the call, partitioned
// across the worker pool by image; the product's taps are partitioned
// across it after. The result is bit-identical, at any worker count, to
// n ConvMatMulTransBInto calls and n serial row sums added in image
// order onto zeroed dw and db. It returns dw.
func ConvWeightGradBatchInto(dw, db, dy, x *Tensor, g ConvGeom) *Tensor {
	gm := gemms.Get().(*GEMM)
	gm.ConvWeightGradBatchInto(dw, db, dy, x, g)
	gemms.Put(gm)
	return dw
}

// ConvWeightGradBatchInto is the package function on gm's plans.
func (gm *GEMM) ConvWeightGradBatchInto(dw, db, dy, x *Tensor, g ConvGeom) *Tensor {
	spatial := g.OutH() * g.OutW()
	outC := checkConvDense("ConvWeightGradBatchInto", dw, g.InC*g.KH*g.KW, g)
	n := checkConvBatch("ConvWeightGradBatchInto", x, g.ImageSize(), dy, outC*spatial, g)
	if db.Size() != outC {
		panic(fmt.Sprintf("tensor: ConvWeightGradBatchInto: bias gradient has %d elements, want %d", db.Size(), outC))
	}
	gm.convWeightGrad(dw.Data, db.Data, dy.Data, outC, x.Data, n, g)
	return dw
}

// ConvMatMulInto computes dst = w @ im2col(img) without materializing
// the column matrix — the implicit-GEMM convolution forward pass. w is
// (outC × InC*KH*KW), img is one flat CHW image of g's geometry, dst is
// (outC × OutH*OutW). The micro-kernel reads the padded image through
// the im2col index map, so results are bit-identical (in exact mode) to
// materializing the columns and calling MatMulInto. It is
// ConvForwardBatchInto for one image and no bias. It returns dst.
func ConvMatMulInto(dst, w *Tensor, img []float64, g ConvGeom) *Tensor {
	k := g.InC * g.KH * g.KW
	n := g.OutH() * g.OutW()
	outC := checkConvMatMul("ConvMatMulInto", dst, w, img, g, k, n)
	gm := gemms.Get().(*GEMM)
	gm.convForward(dst.Data, w.Data, outC, nil, img, 1, g)
	gemms.Put(gm)
	return dst
}

// ConvMatMulTransBInto computes dst = dy @ im2col(img)ᵀ without
// materializing the column matrix — one image's weight gradient. dy is
// (outC × OutH*OutW), dst is (outC × InC*KH*KW). It is
// ConvWeightGradBatchInto for one image and no bias gradient. It
// returns dst.
func ConvMatMulTransBInto(dst, dy *Tensor, img []float64, g ConvGeom) *Tensor {
	k := g.OutH() * g.OutW()
	n := g.InC * g.KH * g.KW
	outC := checkConvMatMul("ConvMatMulTransBInto", dst, dy, img, g, k, n)
	gm := gemms.Get().(*GEMM)
	gm.convWeightGrad(dst.Data, nil, dy.Data, outC, img, 1, g)
	gemms.Put(gm)
	return dst
}

// checkConvDense validates a batch call's dense operand, which must be
// (m×k), and returns m.
func checkConvDense(op string, w *Tensor, k int, g ConvGeom) int {
	if len(w.shape) != 2 || w.shape[1] != k {
		panic(fmt.Sprintf("tensor: %s: weights are %v, want (outC×%d) for conv geometry %+v", op, w.shape, k, g))
	}
	return w.shape[0]
}

// checkConvBatch validates a batch call's two batch operands: a holds
// n items of aPer elements each, n being its leading dimension, and b n
// items of bPer. It returns n.
func checkConvBatch(op string, a *Tensor, aPer int, b *Tensor, bPer int, g ConvGeom) int {
	if len(a.shape) == 0 || a.Size() != a.shape[0]*aPer {
		panic(fmt.Sprintf("tensor: %s: batch operand is %v, want n items of %d elements for conv geometry %+v", op, a.shape, aPer, g))
	}
	n := a.shape[0]
	if b.Size() != n*bPer {
		panic(fmt.Sprintf("tensor: %s: operand is %v, want %d items of %d elements for conv geometry %+v", op, b.shape, n, bPer, g))
	}
	return n
}

// checkConvMatMul validates one implicit-GEMM call: a must be (m×ak),
// dst must be (m×an), img must be one image of g's geometry. It returns
// m. (For the forward kernel ak=colRows and an=spatial; the transposed
// kernel swaps them.)
func checkConvMatMul(op string, dst, a *Tensor, img []float64, g ConvGeom, ak, an int) int {
	if len(a.shape) != 2 || a.shape[1] != ak {
		panic(fmt.Sprintf("tensor: %s: left operand is %v, want (m×%d) for conv geometry %+v", op, a.shape, ak, g))
	}
	m := a.shape[0]
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != an {
		panic(fmt.Sprintf("tensor: %s: dst is %v, want (%d×%d) for conv geometry %+v", op, dst.shape, m, an, g))
	}
	if len(img) != g.ImageSize() {
		panic(fmt.Sprintf("tensor: %s: image has %d elements, want %d (CHW %d×%d×%d)",
			op, len(img), g.ImageSize(), g.InC, g.InH, g.InW))
	}
	return m
}

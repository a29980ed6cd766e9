package tensor

import (
	"fmt"
	"sync"

	"gsfl/internal/parallel"
)

// Blocked, panel-packed GEMM engine.
//
// The two general matmul orientations (plain, aᵀ@b) funnel into
// gemmInto: the right-hand operand is packed once into NR-column panels,
// output rows are partitioned across the worker pool in MR-row blocks,
// and each chunk packs its own A panels before running the micro-kernel
// over its tiles. The products that multiply a small operand against a
// large one that is already laid out for reading — the two implicit-GEMM
// convolution products and a dense layer's two weight products — funnel
// into a rowPlan instead, which packs only the small operand and lets a
// row-indirect micro-kernel read the large one in place: the image, or
// the dense layer's W. The batch calls a convolution layer makes
// (ConvForwardBatchInto, ConvColGradBatchInto) pack their weights once
// per call and let every image of the batch read that one pack. Packing
// buffers come from an internal Pool, so steady-state calls allocate
// nothing unless they fork.
//
// Determinism: every output element is produced by exactly one
// micro-kernel call that accumulates its k terms in ascending order in a
// single accumulator. Chunk boundaries fall between MR-row blocks and
// never change any element's accumulation sequence, so results are
// bit-identical at any worker count — the same contract the previous
// scalar kernels had. In the default "exact" numeric mode the kernels
// round every multiply and add separately (scalar and AVX2 paths agree
// bit-for-bit); a Reassociate mode swaps in FMA kernels whose results
// are still worker-count-independent but only tolerance-comparable to
// exact mode.

const (
	// gemmMR × gemmNR is the micro-kernel register tile: 4 rows × 8
	// columns = eight 4-wide vector accumulators, which fits the 16
	// architectural vector registers on amd64 with room for operands.
	gemmMR = 4
	gemmNR = 8
)

// packPool services the packing panels for every GEMM call in the
// process. Buffers are size-bucketed, so the steady state of a training
// loop reuses the same handful of panels round after round.
var packPool Pool

// offsetPool does the same for the convolution products' offset tables.
var offsetPool slicePool[int]

// ukernFunc computes one MR×NR output tile over the full k extent of a
// packed A panel (k×MR interleaved) and packed B panel (k×NR
// interleaved). The tile is overwritten, not accumulated; row r starts
// at c[r*ldc].
type ukernFunc func(k int, ap, bp, c []float64, ldc int)

// rowKernFunc computes one MR×NR tile of a row-indirect product over
// the full extent of koff: element (r, j) is the sum over kk of
// bp[kk*NR+j] · x[rows[r]+koff[kk]], where bp is a packed B panel. The
// tile is overwritten and stored transposed: column j starts at
// c[j*ldc]. koff must not be empty.
type rowKernFunc func(x []float64, rows, koff []int, bp, c []float64, ldc int)

// ukernPairFunc computes the 2·MR×NR tile of two vertically adjacent
// row blocks — packed A panels ap0 and ap1 against one B panel — with
// the result two ukernFunc calls would give, bit for bit. The
// row-indirect kernel's pair form needs no type of its own: it is a
// rowKernFunc that reads 2·MR rows and stores 2·MR-long columns.
type ukernPairFunc func(k int, ap0, ap1, bp, c []float64, ldc int)

// kernExact / kernFast (and rowKernExact / rowKernFast) are the active
// micro-kernels, overridden at init by the amd64 vector kernels when the
// CPU supports them. The exact ones are always bit-identical to their
// generic bodies; the fast ones may contract multiply-adds (FMA) and
// fall back to the exact kernels on hardware without FMA.
var (
	kernExact ukernFunc = ukernExactGeneric
	kernFast  ukernFunc = ukernExactGeneric

	rowKernExact rowKernFunc = rowKernExactGeneric
	rowKernFast  rowKernFunc = rowKernExactGeneric
)

// kernExactPair / rowKernExactPair are the exact kernels' pair forms,
// nil unless init found hardware with a register file wide enough for
// them (AVX-512 on amd64). The chunk drivers hand them two full row
// blocks at a time and everything else — ragged tiles, the odd last
// block of a chunk, fast mode — to the 4×8 kernels.
var (
	kernExactPair    ukernPairFunc
	rowKernExactPair rowKernFunc
)

// pairMinSteps is the least pair-kernel work — full 8×8 tiles times k,
// i.e. k steps of the pair kernel's inner loop — a product must offer
// before its drivers use the pair kernels at all. A core that executes
// 512-bit multiplies runs everything at a lower clock for a while
// afterwards, so a product with a handful of short tiles taxes the rest
// of the program by more than it saves itself: measured on the
// benchmark host, a server step of the load generator's 32→4 layer (4
// tiles, k = 4: 16 steps) made its round 5–8 % slower, while the
// smallest convolution of an 8-pixel job (≥ 192 steps) is where the
// gain starts (ARCHITECTURE, "Blocking scheme"). The gate is a property
// of the operands, so it is the same at any worker count, and it cannot
// be seen in any bit.
const pairMinSteps = 64

// pairWorthwhile reports whether an (m×k)·(k×n) product clears
// pairMinSteps.
func pairWorthwhile(m, k, n int) bool {
	return (m/(2*gemmMR))*(n/gemmNR)*k >= pairMinSteps
}

// cpu records what the amd64 CPUID probe found, once, at init; every
// field is false elsewhere. It is the only thing that selects between a
// portable body and an assembly one — for the micro-kernels above and
// for the elementwise bodies in vec.go alike.
var cpu struct{ avx2, fma, avx512 bool }

type aKind uint8

const (
	aPlain      aKind = iota // a is (m×k) row-major
	aTransposed              // a is (k×m) row-major, logical A = aᵀ
)

// aSource describes the logical (m×k) left operand in terms of its
// physical storage. It is a small value passed on the stack;
// constructing it never allocates.
type aSource struct {
	data []float64
	kind aKind
}

// gemmKernels returns the packed kernels for an (m×k)·(k×n) product: the
// exact 4×8 kernel and, when the product clears pairWorthwhile, its pair
// form; in Reassociate mode the fast kernel alone.
func gemmKernels(m, k, n int) (ukernFunc, ukernPairFunc) {
	if numericReassoc.Load() {
		return kernFast, nil
	}
	if !pairWorthwhile(m, k, n) {
		return kernExact, nil
	}
	return kernExact, kernExactPair
}

// rowKernels is gemmKernels for the row-indirect kernels.
func rowKernels(rows, k, outC int) (kern, pair rowKernFunc) {
	if numericReassoc.Load() {
		return rowKernFast, nil
	}
	if !pairWorthwhile(rows, k, outC) {
		return rowKernExact, nil
	}
	return rowKernExact, rowKernExactPair
}

// gemmInto computes dst = A @ b for the logical A described by asrc and
// b, a plain (k×n) matrix. dst is fully overwritten.
func gemmInto(dst []float64, m, k, n int, asrc aSource, b []float64) {
	if k == 0 {
		clear(dst[:m*n])
		return
	}
	kern, pair := gemmKernels(m, k, n)
	nb := (n + gemmNR - 1) / gemmNR
	bp := packPool.GetSlice(nb * k * gemmNR)
	packB(bp, b, k, n)
	mblocks := (m + gemmMR - 1) / gemmMR
	grain := grainRows(2 * k * n * gemmMR)
	if parallel.Inline(mblocks, grain) {
		ap := packPool.GetSlice(mblocks*k*gemmMR + gemmMR*gemmNR)
		gemmChunk(kern, pair, dst, ap, bp, asrc, m, k, n, 0, mblocks)
		packPool.PutSlice(ap)
	} else {
		gemmParallel(kern, pair, dst, bp, asrc, m, k, n, mblocks, grain)
	}
	packPool.PutSlice(bp)
}

// gemmParallel is the fork-join path, split out so its closure (and the
// escape of everything it captures) is only paid when the matrix is big
// enough to fan out.
func gemmParallel(kern ukernFunc, pair ukernPairFunc, dst, bp []float64, asrc aSource, m, k, n, mblocks, grain int) {
	parallel.For(mblocks, grain, func(blo, bhi int) {
		ap := packPool.GetSlice((bhi-blo)*k*gemmMR + gemmMR*gemmNR)
		gemmChunk(kern, pair, dst, ap, bp, asrc, m, k, n, blo, bhi)
		packPool.PutSlice(ap)
	})
}

// gemmChunk packs A row-blocks [blo, bhi) into ap and runs gemmTiles
// over them. ap carries gemmMR*gemmNR extra elements at its tail used as
// the spill tile (keeping the scratch heap-backed so passing it to the
// kernel does not force a per-call allocation).
func gemmChunk(kern ukernFunc, pair ukernPairFunc, dst, ap, bp []float64, asrc aSource, m, k, n, blo, bhi int) {
	switch asrc.kind {
	case aPlain:
		packA(ap, asrc.data, m, k, blo, bhi)
	case aTransposed:
		packATrans(ap, asrc.data, m, k, blo, bhi)
	}
	gemmTiles(kern, pair, dst, ap, bp, ap[(bhi-blo)*k*gemmMR:], m, k, n, blo, bhi)
}

// gemmTiles runs the micro-kernel over every tile of row blocks
// [blo, bhi), whose A panels ap holds from its start; tiles ragged in
// rows or columns go through spill (gemmMR*gemmNR elements) and only
// their live part is copied out.
//
// When pair is not nil, two full row blocks at a time go to it wherever
// the column panel is full too. A pair never straddles a chunk boundary
// and computes each element exactly as kern would, so neither the
// worker count nor the presence of pair is visible in any bit.
func gemmTiles(kern ukernFunc, pair ukernPairFunc, dst, ap, bp, spill []float64, m, k, n, blo, bhi int) {
	nb := (n + gemmNR - 1) / gemmNR
	for bi := blo; bi < bhi; {
		blocks := 1
		if pair != nil && bi+2 <= bhi && (bi+2)*gemmMR <= m {
			blocks = 2
		}
		for p := 0; p < nb; p++ {
			j0 := p * gemmNR
			jb := min(n-j0, gemmNR)
			bpan := bp[p*k*gemmNR:]
			if blocks == 2 && jb == gemmNR {
				apan := ap[(bi-blo)*k*gemmMR:]
				pair(k, apan, apan[k*gemmMR:], bpan, dst[bi*gemmMR*n+j0:], n)
				continue
			}
			for b := bi; b < bi+blocks; b++ {
				i0 := b * gemmMR
				ib := min(m-i0, gemmMR)
				apan := ap[(b-blo)*k*gemmMR:]
				if ib == gemmMR && jb == gemmNR {
					kern(k, apan, bpan, dst[i0*n+j0:], n)
					continue
				}
				kern(k, apan, bpan, spill, gemmNR)
				for r := 0; r < ib; r++ {
					copy(dst[(i0+r)*n+j0:(i0+r)*n+j0+jb], spill[r*gemmNR:r*gemmNR+jb])
				}
			}
		}
		bi += blocks
	}
}

// ConvColGradBatchInto computes the column gradients of a convolution's
// input half for a whole batch: dcol_i = wᵀ @ dy_i for each of the n
// images, where w is (outC × InC*KH*KW), dy holds n (outC × OutH*OutW)
// output gradients and dcols, whose leading dimension is n, receives n
// (InC*KH*KW × OutH*OutW) column matrices — the layout Col2ImBatch
// scatters back to image space.
//
// wᵀ is packed into A panels once for the batch, and every image reads
// that one read-only pack; an image packs only its own dy_i. Images are
// partitioned across the worker pool and each writes its own column
// matrix, so the result is bit-identical to n MatMulTransAInto calls at
// any worker count. It returns dcols.
func ConvColGradBatchInto(dcols, w, dy *Tensor, g ConvGeom) *Tensor {
	m, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	k := checkConvDense("ConvColGradBatchInto", w, m, g)
	n := checkConvBatch("ConvColGradBatchInto", dcols, m*spatial, dy, k*spatial, g)
	if k == 0 {
		clear(dcols.Data)
		return dcols
	}
	gb := gemmBatches.Get().(*gemmBatch)
	gb.kern, gb.pair = gemmKernels(m, k, spatial)
	gb.m, gb.k, gb.n = m, k, spatial
	mblocks := (m + gemmMR - 1) / gemmMR
	gb.ap = packPool.GetSlice(mblocks * k * gemmMR)
	packATrans(gb.ap, w.Data, m, k, 0, mblocks)
	gb.dst, gb.b = dcols.Data, dy.Data
	parallel.For(n, 1, gb.body)
	packPool.PutSlice(gb.ap)
	*gb = gemmBatch{body: gb.body}
	gemmBatches.Put(gb)
	return dcols
}

// gemmBatch is one ConvColGradBatchInto call's shared state: A packed
// for every row block, and the batch of (k×n) B operands.
//
// Batch state is pooled, and each value binds its loop body once, when
// it is made: a batch call that forks hands parallel.For that stored
// body rather than a fresh closure, so it allocates nothing of its own.
// At two workers every conv layer call of a training step forks, and
// one closure a call was 9 MiB of garbage over a sim_paper pass, which
// runs no collection after its set-up.
type gemmBatch struct {
	kern       ukernFunc
	pair       ukernPairFunc
	ap, dst, b []float64
	m, k, n    int
	body       func(lo, hi int)
}

var gemmBatches = sync.Pool{New: func() any {
	gb := new(gemmBatch)
	gb.body = gb.images
	return gb
}}

// images computes dst_i = A @ B_i for images [lo, hi), packing each B_i
// in turn into the chunk's own panels, whose tail is the spill tile.
func (gb *gemmBatch) images(lo, hi int) {
	m, k, n := gb.m, gb.k, gb.n
	panels := (n + gemmNR - 1) / gemmNR * k * gemmNR
	bp := packPool.GetSlice(panels + gemmMR*gemmNR)
	mblocks := (m + gemmMR - 1) / gemmMR
	for i := lo; i < hi; i++ {
		packB(bp, gb.b[i*k*n:(i+1)*k*n], k, n)
		gemmTiles(gb.kern, gb.pair, gb.dst[i*m*n:(i+1)*m*n], gb.ap, bp, bp[panels:], m, k, n, 0, mblocks)
	}
	packPool.PutSlice(bp)
}

// rowPlan is one row-indirect product,
//
//	dst[oc][r] = Σ_kk dense[oc][kk] · x[row[r] + koff[kk]]
//
// with dense (outC × k) small and x large: the kernels, the two offset
// tables and dense, packed. x is the micro-kernel's broadcast operand
// and is read where it lies; only dense is packed — once per plan,
// however many x's read it. newRowPlan leases the buffers; release
// returns them. Plans are pooled and bind their loop body once, for
// gemmBatch's reason.
//
// Rows past a ragged last block read at the past-row offset the plan
// was built with; those lanes only ever reach the spill tile, so the
// kernel has no edge path. MR-row blocks are partitioned across the
// worker pool exactly as gemmInto's are. Its two uses:
//
//   - Convolution (newConvPlan). In padded coordinates the column matrix
//     of an image is a sum of two offset tables, col[t][p] = x[tap[t] +
//     pos[p]] (paddedGrids), so (row, koff) = (pos, tap) for the forward
//     pass and (tap, pos) for the weight gradient; x is the padded copy
//     of each image in turn, and past rows read its zero half.
//   - A dense layer's two weight products (denseInto), where x is W
//     (in × out) itself and each table is one strided line: the forward
//     y = x@W has dense = x, k = in, koff[kk] = kk·out and row[r] = r;
//     the input gradient dx = dy@Wᵀ has dense = dy, k = out, koff[kk] =
//     kk and row[r] = r·out.
type rowPlan struct {
	kern, pair         rowKernFunc
	offs, koff, rowOff []int     // offs is the lease koff and rowOff live in
	bp                 []float64 // dense, packed into k×NR panels
	outC, rows         int
	rblocks, grain     int

	// A convolution's: the geometry, the padded image's element count,
	// and the operands images reads — src's images, their outputs in
	// dst, and the bias (nil for none).
	g              ConvGeom
	size           int
	dst, bias, src []float64
	body           func(lo, hi int) // images, bound once
}

var rowPlans = sync.Pool{New: func() any {
	p := new(rowPlan)
	p.body = p.images
	return p
}}

// newRowPlan builds the plan of dense (outC × k) against an x of xLen
// elements, with koff and the rows' offsets the points of kGrid and
// rowGrid and past rows at pastRow. The kernels index x with no bounds
// check, so it panics unless every offset it will read — the largest
// row (past rows included) plus the largest koff — is inside x.
func newRowPlan(dense []float64, outC int, kGrid, rowGrid offsetGrid, pastRow, xLen int) *rowPlan {
	k, rows := kGrid.size(), rowGrid.size()
	rblocks := (rows + gemmMR - 1) / gemmMR
	if k > 0 && rows > 0 {
		hi := rowGrid.last()
		if rblocks*gemmMR > rows {
			hi = max(hi, pastRow)
		}
		if end := hi + kGrid.last(); end >= xLen {
			panic(fmt.Sprintf("tensor: row plan reads x[%d], past its %d elements", end, xLen))
		}
	}
	p := rowPlans.Get().(*rowPlan)
	p.outC, p.rows, p.rblocks = outC, rows, rblocks
	p.kern, p.pair = rowKernels(rows, k, outC)
	p.offs = offsetPool.GetSlice(k + rblocks*gemmMR)
	p.koff, p.rowOff = p.offs[:k], p.offs[k:]
	kGrid.fill(p.koff)
	rowGrid.fill(p.rowOff)
	for r := rows; r < len(p.rowOff); r++ {
		p.rowOff[r] = pastRow
	}
	p.bp = packPool.GetSlice((outC + gemmNR - 1) / gemmNR * k * gemmNR)
	packBTrans(p.bp, dense, k, outC)
	p.grain = grainRows(2 * k * outC * gemmMR)
	return p
}

// newConvPlan builds the plan of dense (outC × k) against images of g's
// geometry: the forward product, or with weightGrad the weight
// gradient's. x is a padded copy and its zero half (padImage).
func newConvPlan(dense []float64, outC int, g ConvGeom, weightGrad bool) *rowPlan {
	kGrid, rowGrid, size := paddedGrids(g)
	if weightGrad {
		kGrid, rowGrid = rowGrid, kGrid
	}
	p := newRowPlan(dense, outC, kGrid, rowGrid, size, 2*size)
	p.g, p.size = g, size
	return p
}

// release returns the plan's leases and the plan itself.
func (p *rowPlan) release() {
	packPool.PutSlice(p.bp)
	offsetPool.PutSlice(p.offs)
	*p = rowPlan{body: p.body}
	rowPlans.Put(p)
}

// run computes the plan's product against x into dst, (outC × rows)
// row-major, over every row block — partitioned across the worker pool
// when the product is more than one chunk. spill stages ragged tiles.
// The plan's k must not be zero.
func (p *rowPlan) run(dst, x, spill []float64) {
	if parallel.Inline(p.rblocks, p.grain) {
		p.chunk(dst, x, spill, 0, p.rblocks)
	} else {
		rowPlanParallel(p, dst, x)
	}
}

// images computes the product of images [lo, hi) of p.src, each writing
// its own (outC × rows) block of p.dst, and adds p.bias[oc] to every
// element of row oc. The padded copies share one lease.
func (p *rowPlan) images(lo, hi int) {
	imgSize, outSize := p.g.ImageSize(), p.outC*p.rows
	buf := packPool.GetSlice(2*p.size + gemmMR*gemmNR)
	for i := lo; i < hi; i++ {
		out := p.dst[i*outSize : (i+1)*outSize]
		p.image(out, p.src[i*imgSize:(i+1)*imgSize], buf[:2*p.size], buf[2*p.size:])
		for oc, b := range p.bias {
			row := out[oc*p.rows : (oc+1)*p.rows]
			for j := range row {
				row[j] += b
			}
		}
	}
	packPool.PutSlice(buf)
}

// image computes one image's product into dst: the padded copy goes to
// x (2·size elements: the image, then as many zeros), and the plan runs
// against it.
func (p *rowPlan) image(dst, img, x, spill []float64) {
	if len(p.koff) == 0 {
		clear(dst[:p.outC*p.rows])
		return
	}
	padImage(x, img, p.g)
	p.run(dst, x, spill)
}

// rowPlanParallel is run's fork-join path, split out for the reason
// gemmParallel is. Each chunk borrows its own spill tile.
func rowPlanParallel(p *rowPlan, dst, x []float64) {
	parallel.For(p.rblocks, p.grain, func(blo, bhi int) {
		spill := packPool.GetSlice(gemmMR * gemmNR)
		p.chunk(dst, x, spill, blo, bhi)
		packPool.PutSlice(spill)
	})
}

// chunk runs the row-indirect micro-kernel over every tile of row blocks
// [blo, bhi) against x. Full tiles are stored straight into dst, which
// is (outC × rows) row-major — the kernel's transposed store; ragged
// ones go through spill (heap-backed for the reason gemmChunk's is).
// pair takes two full row blocks at a time under gemmTiles' rule.
func (p *rowPlan) chunk(dst, x, spill []float64, blo, bhi int) {
	kern, pair, rowOff, koff, bp := p.kern, p.pair, p.rowOff, p.koff, p.bp
	rows, outC, k := p.rows, p.outC, len(koff)
	for bi := blo; bi < bhi; {
		blocks := 1
		if pair != nil && bi+2 <= bhi && (bi+2)*gemmMR <= rows {
			blocks = 2
		}
		for j0 := 0; j0 < outC; j0 += gemmNR {
			jb := min(outC-j0, gemmNR)
			bpan := bp[j0*k:]
			if blocks == 2 && jb == gemmNR {
				pair(x, rowOff[bi*gemmMR:], koff, bpan, dst[j0*rows+bi*gemmMR:], rows)
				continue
			}
			for b := bi; b < bi+blocks; b++ {
				r0 := b * gemmMR
				rb := min(rows-r0, gemmMR)
				if rb == gemmMR && jb == gemmNR {
					kern(x, rowOff[r0:], koff, bpan, dst[j0*rows+r0:], rows)
					continue
				}
				kern(x, rowOff[r0:], koff, bpan, spill, gemmMR)
				for j := 0; j < jb; j++ {
					copy(dst[(j0+j)*rows+r0:][:rb], spill[j*gemmMR:])
				}
			}
		}
		bi += blocks
	}
}

// convGemmInto is one image's product of either kind: a plan, then that
// plan's one image.
func convGemmInto(dst, dense []float64, outC int, img []float64, g ConvGeom, weightGrad bool) {
	p := newConvPlan(dense, outC, g, weightGrad)
	p.dst, p.src = dst, img
	p.images(0, 1)
	p.release()
}

// denseInto is either weight product of a dense layer (see rowPlan):
// dense (outC × k) against w read in place through kGrid and rowGrid.
// Past rows read at row 0, which every table keeps inside w.
func denseInto(dst, dense []float64, outC int, w []float64, kGrid, rowGrid offsetGrid) {
	if kGrid.size() == 0 {
		clear(dst)
		return
	}
	p := newRowPlan(dense, outC, kGrid, rowGrid, 0, len(w))
	spill := packPool.GetSlice(gemmMR * gemmNR)
	p.run(dst, w, spill)
	packPool.PutSlice(spill)
	p.release()
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
	p := newConvPlan(w.Data, outC, g, false)
	p.dst, p.bias, p.src = dst.Data, bias, x.Data
	parallel.For(n, 1, p.body)
	p.release()
	return dst
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
	m := checkConvMatMul("ConvMatMulInto", dst, w, img, g, k, n)
	convGemmInto(dst.Data, w.Data, m, img, g, false)
	return dst
}

// ConvMatMulTransBInto computes dst = dy @ im2col(img)ᵀ without
// materializing the column matrix — the implicit-GEMM weight-gradient
// kernel of the conv backward pass. dy is (outC × OutH*OutW), dst is
// (outC × InC*KH*KW). It returns dst.
func ConvMatMulTransBInto(dst, dy *Tensor, img []float64, g ConvGeom) *Tensor {
	k := g.OutH() * g.OutW()
	n := g.InC * g.KH * g.KW
	m := checkConvMatMul("ConvMatMulTransBInto", dst, dy, img, g, k, n)
	convGemmInto(dst.Data, dy.Data, m, img, g, true)
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

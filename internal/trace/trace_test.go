package trace

import (
	"strings"
	"testing"

	"slicing/internal/bench"
	"slicing/internal/fabric"
	"slicing/internal/gpubackend"
	"slicing/internal/gpusim"
	"slicing/internal/runtime"
	"slicing/internal/universal"
)

func sampleFigure() bench.Figure {
	return bench.Figure{
		Title: "test figure",
		Series: []bench.Series{
			{Name: "UA - Column", Points: []bench.Point{
				{Batch: 1024, PercentOfPeak: 80, ReplAB: 1, ReplC: 1, Stationary: universal.StationaryC},
				{Batch: 8192, PercentOfPeak: 95, ReplAB: 1, ReplC: 1, Stationary: universal.StationaryC},
			}},
			{Name: "DT - Row", Points: []bench.Point{
				{Batch: 1024, PercentOfPeak: 40, ReplAB: 1, ReplC: 1},
				{Batch: 8192, PercentOfPeak: 50, ReplAB: 1, ReplC: 1},
			}},
		},
	}
}

func TestWriteFigureTable(t *testing.T) {
	var sb strings.Builder
	WriteFigureTable(&sb, sampleFigure())
	out := sb.String()
	for _, want := range []string{"test figure", "UA - Column", "DT - Row", "1024", "8192", "95.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFigureChart(t *testing.T) {
	var sb strings.Builder
	WriteFigureChart(&sb, sampleFigure(), 10)
	out := sb.String()
	if !strings.Contains(out, "A = UA - Column") || !strings.Contains(out, "B = DT - Row") {
		t.Errorf("chart legend missing:\n%s", out)
	}
	if !strings.Contains(out, "100%") || !strings.Contains(out, "0%") {
		t.Errorf("chart axis missing:\n%s", out)
	}
	// The higher series' marker must appear above the lower one.
	aLine, bLine := -1, -1
	for i, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "A") && aLine < 0 && strings.Contains(line, "|") {
			aLine = i
		}
		if strings.Contains(line, "B") && bLine < 0 && strings.Contains(line, "|") {
			bLine = i
		}
	}
	if aLine < 0 || bLine < 0 || aLine >= bLine {
		t.Errorf("marker ordering wrong (A at %d, B at %d):\n%s", aLine, bLine, out)
	}
}

func TestSummarize(t *testing.T) {
	sum := Summarize(sampleFigure())
	if sum.BestUA != "UA - Column" || sum.BestOther != "DT - Row" {
		t.Fatalf("summary picked %q vs %q", sum.BestUA, sum.BestOther)
	}
	if !sum.UAWinsOrTies {
		t.Fatal("UA at 95% should beat DT at 50%")
	}
}

func TestChartDefaultHeight(t *testing.T) {
	var sb strings.Builder
	WriteFigureChart(&sb, sampleFigure(), 0) // default height must not panic
	if sb.Len() == 0 {
		t.Fatal("no chart output")
	}
}

func TestWriteGantt(t *testing.T) {
	eng := gpusim.NewEngine()
	comp := eng.AddResource("compute")
	net := eng.AddResource("net")
	g := eng.AddOp("get", gpusim.OpComm, 1.0, nil, []gpusim.ResourceID{net})
	eng.AddOp("gemm", gpusim.OpCompute, 2.0, []gpusim.OpID{g}, []gpusim.ResourceID{comp})
	res := eng.Run()
	var sb strings.Builder
	WriteGantt(&sb, eng, res, 30)
	out := sb.String()
	if !strings.Contains(out, "compute") || !strings.Contains(out, "net") {
		t.Fatalf("gantt missing resource rows:\n%s", out)
	}
	if !strings.Contains(out, "C") || !strings.Contains(out, "G") {
		t.Fatalf("gantt missing op markers:\n%s", out)
	}
	// The get occupies the first third, the gemm the rest: the compute row
	// must start idle.
	lines := strings.Split(out, "\n")
	var computeRow string
	for _, l := range lines {
		if strings.Contains(l, "compute") {
			computeRow = l
		}
	}
	bar := computeRow[strings.Index(computeRow, "|")+1:]
	if bar[0] == 'C' {
		t.Fatalf("compute should be idle while the get runs:\n%s", out)
	}
}

func TestWriteGanttEmpty(t *testing.T) {
	eng := gpusim.NewEngine()
	var sb strings.Builder
	WriteGantt(&sb, eng, eng.Run(), 20)
	if !strings.Contains(sb.String(), "empty") {
		t.Fatal("empty schedule not reported")
	}
}

// TestWriteTimelineGantt renders a timed run from its world's schedule:
// device engines and fabric links share one Gantt, each with its
// utilization.
func TestWriteTimelineGantt(t *testing.T) {
	f := fabric.SingleSwitch(2, 1e9, 1e12, 0, "mini")
	dev := gpusim.Device{Name: "flat", PeakFlops: 1e12, MemBW: 1e12, AccumBWFactor: 1}
	w := gpubackend.New(f.Topology(), dev).NewWorld(2).(*gpubackend.World)
	seg := w.AllocSymmetric(250_000)
	w.Run(func(pe runtime.PE) {
		if pe.Rank() == 0 {
			pe.Get(make([]float32, 250_000), seg, 1, 0) // 1 MB at 1 GB/s: 1 ms
			runtime.ChargeGemm(pe, 1000, 1000, 1000)    // 2 GFLOP at 1 TFLOP/s: 2 ms
		}
	})
	var sb strings.Builder
	eng, res := w.Schedule()
	WriteGantt(&sb, eng, res, 30)
	out := sb.String()
	if !strings.Contains(out, "pe0.compute") || !strings.Contains(out, "pe0.down") || !strings.Contains(out, "pe0.copy-in") {
		t.Fatalf("timed-run gantt missing resource rows:\n%s", out)
	}
	if !strings.Contains(out, "C") || !strings.Contains(out, "G") {
		t.Fatalf("timed-run gantt missing op markers:\n%s", out)
	}
	// The link worked 1 ms of a 3 ms makespan, the compute engine 2 ms.
	if !strings.Contains(out, "33.3%") || !strings.Contains(out, "66.7%") {
		t.Fatalf("timed-run gantt missing utilization figures:\n%s", out)
	}

	sb.Reset()
	eng, res = gpubackend.New(f.Topology(), dev).NewWorld(2).(*gpubackend.World).Schedule()
	WriteGantt(&sb, eng, res, 20)
	if !strings.Contains(sb.String(), "empty") {
		t.Fatal("empty timed run not reported")
	}
}

func TestWriteLinkUtilization(t *testing.T) {
	links := []runtime.LinkStats{
		{Link: "n0.nic0.ib<", BusySeconds: 0.5, QueueDelaySeconds: 0.25, Bytes: 32e6},
		{Link: "rail0.spine1>", BusySeconds: 0, Bytes: 0}, // idle: skipped
	}
	var sb strings.Builder
	WriteLinkUtilization(&sb, links, 1.0, 20)
	out := sb.String()
	if !strings.Contains(out, "n0.nic0.ib<") || !strings.Contains(out, "50.0%") ||
		!strings.Contains(out, "32.00 MB") {
		t.Fatalf("link utilization missing the busy link:\n%s", out)
	}
	if strings.Contains(out, "rail0.spine1>") {
		t.Fatalf("idle link should be skipped:\n%s", out)
	}

	sb.Reset()
	WriteLinkUtilization(&sb, nil, 0, 20)
	if !strings.Contains(sb.String(), "no fabric traffic") {
		t.Fatal("empty link set not reported")
	}
}

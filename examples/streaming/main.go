// Streaming drivers: push records, get windowed outputs.
//
// The stream layer sits on top of the Slider runtime and removes all
// split/window bookkeeping from application code. This example runs the
// same anomaly-ish metric (error-rate per service) through both drivers:
//
//   - a CountWindow that slides every 2 splits over the last 8, and
//   - a TimeWindow covering 4 minutes sliding each minute, where the
//     per-minute data volume fluctuates (variable-width underneath).
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"slider"
)

// logLine is one synthetic service-log record.
type logLine struct {
	Service string
	Error   bool
}

// errorRateJob counts requests and errors per service; Reduce emits the
// error count (keys carry the service and kind).
func errorRateJob() *slider.Job {
	sum := func(_ string, values []slider.Value) slider.Value {
		var total int64
		for _, v := range values {
			total += v.(int64)
		}
		return total
	}
	return &slider.Job{
		Name:       "error-rate",
		Partitions: 2,
		Map: func(rec slider.Record, emit slider.Emit) error {
			l := rec.(logLine)
			emit("req:"+l.Service, int64(1))
			if l.Error {
				emit("err:"+l.Service, int64(1))
			}
			return nil
		},
		Combine:     sum,
		Commutative: true,
	}
}

func rate(out slider.Output, service string) float64 {
	req, _ := out["req:"+service].(int64)
	if req == 0 {
		return 0
	}
	err, _ := out["err:"+service].(int64)
	return 100 * float64(err) / float64(req)
}

func main() {
	rng := rand.New(rand.NewSource(4))
	services := []string{"api", "auth", "search"}

	fmt.Println("== count-based window (8 splits, slide 2) ==")
	cw, err := slider.NewCountWindow(slider.CountWindowConfig{
		Job:             errorRateJob(),
		RecordsPerSplit: 50,
		WindowSplits:    8,
		SlideSplits:     2,
	}, func(o slider.WindowOutput) error {
		fmt.Printf("splits [%d..%d): api=%.1f%% auth=%.1f%% search=%.1f%% errors\n",
			o.WindowStart, o.WindowEnd,
			rate(o.Result.Output, "api"), rate(o.Result.Output, "auth"),
			rate(o.Result.Output, "search"))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 700; i++ {
		svc := services[rng.Intn(len(services))]
		// auth degrades midway through the stream.
		degraded := svc == "auth" && i > 350
		if err := cw.Push(logLine{Service: svc, Error: degraded && rng.Float64() < 0.3 || rng.Float64() < 0.02}); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("\n== time-based window (4 min, slide 1 min, bursty volume) ==")
	tw, err := slider.NewTimeWindow(slider.TimeWindowConfig{
		Job:             errorRateJob(),
		Window:          4 * time.Minute,
		Slide:           time.Minute,
		RecordsPerSplit: 40,
	}, func(o slider.WindowOutput) error {
		start := time.Unix(0, o.WindowStart).UTC().Format("15:04")
		end := time.Unix(0, o.WindowEnd).UTC().Format("15:04")
		fmt.Printf("[%s, %s): api=%.1f%% auth=%.1f%% errors (update work %v)\n",
			start, end, rate(o.Result.Output, "api"), rate(o.Result.Output, "auth"),
			o.Result.Report.Work.Round(1000))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	epoch := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	for minute := 0; minute < 9; minute++ {
		// Bursty traffic: volume varies 40–200 records per minute.
		volume := 40 + rng.Intn(160)
		for i := 0; i < volume; i++ {
			svc := services[rng.Intn(len(services))]
			rec := slider.TimedRecord{
				At: epoch.Add(time.Duration(minute)*time.Minute +
					time.Duration(i)*time.Second/4),
				Record: logLine{Service: svc, Error: rng.Float64() < 0.05},
			}
			if err := tw.Push(rec); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
}
